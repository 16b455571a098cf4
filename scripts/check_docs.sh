#!/usr/bin/env bash
# check_docs.sh — the docs gate (gofmt-style: quiet on success, lists
# problems and exits non-zero on failure).
#
# Checks:
#   1. README.md references docs/ARCHITECTURE.md (the architecture doc must
#      stay discoverable, not just exist).
#   2. Every relative markdown link in README.md and docs/*.md points at a
#      file that exists, and its #anchor, if any, names a heading of the
#      markdown file it points at (the linking file itself for a bare
#      #anchor).
#   3. Every internal/ package ships a doc.go package overview.
#   4. Every maliva-server flag README.md and docs/*.md name is one
#      `go run ./cmd/maliva-server -h` prints. A flag is named after
#      `maliva-server` on a command line (or its `\` continuation lines), or
#      in backticks in prose — unless another command of this repo or the go
#      tool defines it.
#  4b. The reverse: every flag `go run ./cmd/maliva-server -h` prints is
#      named in README.md (in the sense of check 4), so no server flag goes
#      undocumented.
#   5. Every backticked `Test…`/`Benchmark…` name in README.md and docs/*.md
#      is a func of this repo, and every backticked `*.go` file there is a
#      file of the repo (matched by path suffix, so `engine/access.go` and
#      `doc.go` both count). Names starting with `_` are skipped.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

if ! grep -q 'docs/ARCHITECTURE\.md' README.md; then
  echo "README.md no longer references docs/ARCHITECTURE.md" >&2
  fail=1
fi

# slugs prints the anchor GitHub gives each heading of a markdown file: the
# heading text lowercased, every character but letters, digits, spaces,
# hyphens and underscores dropped, spaces turned into hyphens, and -1, -2, …
# appended to repeats. Headings inside fenced code blocks are not headings.
slugs() {
  awk '
    /^```/ { fence = !fence; next }
    fence || !/^#+[ \t]/ { next }
    {
      s = $0
      sub(/^#+[ \t]+/, "", s)
      sub(/[ \t]+$/, "", s)
      s = tolower(s)
      gsub(/[^a-z0-9 _-]/, "", s)
      gsub(/ /, "-", s)
      if (s in seen) print s "-" seen[s]++
      else { seen[s] = 1; print s }
    }' "$1"
}

# Relative markdown links: [text](path#anchor) where path is not a URL.
check_links() {
  local file="$1" dir
  dir=$(dirname "$file")
  # One link per line, split into path and anchor; ignore absolute URLs.
  # (grep exits 1 on link-free files — that is a pass, not a failure.)
  { grep -oE '\]\(([^)#]*)(#[^)]*)?\)' "$file" || true; } \
    | sed -E 's/^\]\(//; s/\)$//' \
    | while IFS='#' read -r target anchor; do
        case "$target" in
          http://*|https://*|mailto:*) continue ;;
        esac
        path=$file
        if [ -n "$target" ]; then
          if [ -e "$dir/$target" ]; then
            path=$dir/$target
          elif [ -e "$target" ]; then
            path=$target
          else
            echo "$file: broken relative link: $target" >&2
            echo broken >> "$BROKEN_MARKER"
            continue
          fi
        fi
        case "$path" in *.md) ;; *) continue ;; esac
        if [ -n "$anchor" ] && ! slugs "$path" | grep -qxF -e "$anchor"; then
          echo "$file: link anchor #$anchor names no heading of $path" >&2
          echo broken >> "$BROKEN_MARKER"
        fi
      done
}

BROKEN_MARKER=$(mktemp)
trap 'rm -f "$BROKEN_MARKER"' EXIT
for f in README.md docs/*.md; do
  [ -e "$f" ] && check_links "$f"
done
if [ -s "$BROKEN_MARKER" ]; then
  fail=1
fi

for pkg in internal/*/; do
  [ -d "$pkg" ] || continue
  if [ ! -e "${pkg}doc.go" ]; then
    # Packages whose package comment lives in a regular file are fine;
    # flag only packages with no package comment at all.
    if ! grep -rlq '^// Package' "$pkg"*.go 2>/dev/null; then
      echo "$pkg has no package comment (add a doc.go)" >&2
      fail=1
    fi
  fi
done

# flags_of prints the flags a command's -h lists, one per line.
flags_of() { go run "$1" -h 2>&1 | sed -nE 's/^  (-[a-z][a-z0-9-]*).*/\1/p'; }
server_flags=$(flags_of ./cmd/maliva-server)
if [ -z "$server_flags" ]; then
  echo "go run ./cmd/maliva-server -h printed no flags" >&2
  fail=1
fi
other_flags=$(
  for cmd in ./cmd/maliva-bench ./cmd/maliva-train ./bench; do flags_of "$cmd"; done
  for topic in build testflag; do go help "$topic" | sed -nE 's/^\t(-[a-z][a-z0-9.-]*).*/\1/p'; done
)
has() { grep -qxF -e "$2" <<<"$1"; }
# Emit "file:line: flag kind" for every flag the docs name (once); kind is
# "command" (must be maliva-server's) or "prose" (may be any command's).
named=$(awk '
  {
    line = $0
    if (cont || line ~ /maliva-server/) {
      rest = cont ? line : substr(line, index(line, "maliva-server"))
      sub(/#.*/, "", rest)
      while (match(rest, /(^|[ \t`])-[a-z][a-z0-9-]*/)) {
        flag = substr(rest, RSTART, RLENGTH); sub(/^[ \t`]/, "", flag)
        print FILENAME ":" FNR ": " flag " command"
        rest = substr(rest, RSTART + RLENGTH)
      }
      cont = (line ~ /\\$/)
    }
    rest = line
    while (match(rest, /`-[a-z][a-z0-9-]*/)) {
      print FILENAME ":" FNR ": " substr(rest, RSTART + 1, RLENGTH - 1) " prose"
      rest = substr(rest, RSTART + RLENGTH)
    }
  }' README.md docs/*.md | awk '!seen[$1 " " $2]++')
while read -r where flag kind; do
  [ -n "$flag" ] || continue
  if has "$server_flags" "$flag"; then continue; fi
  if [ "$kind" = prose ] && has "$other_flags" "$flag"; then continue; fi
  echo "$where names maliva-server $flag, which go run ./cmd/maliva-server -h does not print" >&2
  fail=1
done <<<"$named"
readme_flags=$(awk '$1 ~ /^README\.md:/ { print $2 }' <<<"$named")
while read -r flag; do
  [ -n "$flag" ] || continue
  if ! has "$readme_flags" "$flag"; then
    echo "README.md never names maliva-server $flag, which go run ./cmd/maliva-server -h prints" >&2
    fail=1
  fi
done <<<"$server_flags"

go_files=$(git ls-files --cached --others --exclude-standard '*.go')
while IFS=: read -r file name; do
  [ -n "$name" ] || continue
  name=${name//\`/}
  # shellcheck disable=SC2086 # one path per word
  if ! grep -qE "^func ${name}\(" $go_files; then
    echo "$file names \`$name\`, which no .go file defines" >&2
    fail=1
  fi
done < <(grep -oE '`(Test|Benchmark)[A-Za-z0-9_]*`' README.md docs/*.md | sort -u)
while IFS=: read -r file name; do
  [ -n "$name" ] || continue
  name=${name//\`/}
  case "$name" in _*) continue ;; esac
  if ! grep -qE "(^|/)${name//./\\.}\$" <<<"$go_files"; then
    echo "$file names \`$name\`, which is not a file of this repo" >&2
    fail=1
  fi
done < <(grep -oE '`[A-Za-z0-9_./-]+\.go`' README.md docs/*.md | sort -u)

exit "$fail"
