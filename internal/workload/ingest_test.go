package workload

import (
	"encoding/json"
	"testing"
)

// FuzzRowsToBatch feeds RowsToBatch the rows of arbitrary /ingest JSON
// bodies. Nothing may panic; a rejected body leaves the vocabulary as it
// was; an accepted batch carries every column of the main table, typed as
// the table types it, and one row per body row. Rows from the ingest stream,
// a body whose new word comes before its missing point column, and the
// malformed /ingest payloads seed the corpus, so plain go test runs them.
func FuzzRowsToBatch(f *testing.F) {
	cfg := TwitterConfig()
	cfg.Rows = 500
	ds, err := Twitter(cfg)
	if err != nil {
		f.Fatal(err)
	}
	stream, err := NewIngestStream(ds, 3)
	if err != nil {
		f.Fatal(err)
	}
	rows := stream.Next(10)
	good, _ := json.Marshal(rows)
	f.Add(good)
	partial := rows[0]
	partial["text"] = "zzfuzzunseenword"
	delete(partial, "coordinates")
	bad, _ := json.Marshal([]any{partial})
	f.Add(bad)
	for _, body := range []string{`[]`, `[{"nope":1}]`, `[null]`, `not json`,
		`[{"id":1,"text":7,"created_at":"2016-01-01T00:00:00Z","coordinates":[0,0],"users_statuses_count":1,"users_followers_count":1,"user_id":1}]`,
		`[{"id":1,"text":"a b","created_at":"yesterday","coordinates":[0,0],"users_statuses_count":1,"users_followers_count":1,"user_id":1}]`,
		`[{"id":1,"text":"a b","created_at":1,"coordinates":{"lon":1},"users_statuses_count":1,"users_followers_count":1,"user_id":1}]`,
	} {
		f.Add([]byte(body))
	}

	t := ds.DB.Table(ds.Main)
	f.Fuzz(func(tt *testing.T, body []byte) {
		var rows []map[string]any
		if err := json.Unmarshal(body, &rows); err != nil {
			return
		}
		words := t.Vocab.Len()
		b, err := RowsToBatch(ds, rows)
		if err != nil {
			if got := t.Vocab.Len(); got != words {
				tt.Fatalf("rejected body (%v) grew the vocabulary %d → %d", err, words, got)
			}
			return
		}
		if b.Rows() != len(rows) {
			tt.Fatalf("batch has %d rows, body %d", b.Rows(), len(rows))
		}
		for _, c := range t.Cols {
			bc := b.Col(c.Name)
			if bc == nil || bc.Type != c.Type || bc.Len() != len(rows) {
				tt.Fatalf("batch column %q = %+v, want %d rows of %v", c.Name, bc, len(rows), c.Type)
			}
		}
	})
}
