package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// peerPost sends one body to a node endpoint and returns status and body.
func peerPost(n *Node, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	n.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// FuzzPeerPayload posts generated bodies to /cluster/fetch and /cluster/fill
// on one node. No body panics the node; a body refused with 400 leaves the
// local cache's size unchanged; a fetch hit answers exactly the fresh encode
// of the response the node holds; and an accepted fill, once fetched (twice:
// the first write stores the bytes, the second writes them), answers exactly
// the fresh encode of the response the fill carried. Seeded from the
// payloads TestHTTPPeerRoundTrip sends.
func FuzzPeerPayload(f *testing.F) {
	c, err := New(Config{
		Replicas: 1,
		Names:    []string{"twitter"},
		Datasets: testDatasets(f),
		Factory:  middleware.OracleFactory,
		// An hour-long TTL: no entry expires between two Len reads.
		Server: middleware.ServerConfig{DefaultBudgetMs: 500, ResultTTL: time.Hour},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		f.Fatal(err)
	}
	closeOnCleanup(f, c)
	node := c.Node(0)
	pc := node.cacheFor("twitter")
	const fetchPath, fillPath = "/cluster/fetch?dataset=twitter", "/cluster/fill?dataset=twitter"

	code, served := peerPost(node, "/viz?dataset=twitter", twitterBody("word0031"))
	if code != http.StatusOK {
		f.Fatalf("seed request: status %d: %s", code, served)
	}
	key := resultKeyOf(f, served, workload.USExtent, 500)
	key.DataVersion, _ = node.dataVersion("twitter")
	var resp middleware.Response
	if err := json.Unmarshal(served, &resp); err != nil {
		f.Fatal(err)
	}
	missKey := key
	missKey.SQL = "SELECT nothing"
	for _, k := range []middleware.ResultKey{key, missKey} {
		b, _ := json.Marshal(k)
		f.Add(false, b)
	}
	for _, fill := range []peerFill{{Key: missKey, Response: &resp}, {Key: key, Response: &middleware.Response{}}} {
		b, _ := json.Marshal(fill)
		f.Add(true, b)
	}
	f.Add(true, []byte(`{"key":{},"response":null}`))
	f.Add(false, []byte(`{`))

	encode := func(t *testing.T, r *middleware.Response) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// fetchTwice fetches k twice and holds both answers to want.
	fetchTwice := func(t *testing.T, k middleware.ResultKey, want []byte) {
		kb, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			code, got := peerPost(node, fetchPath, kb)
			if code != http.StatusOK {
				t.Fatalf("fetch %d of an accepted key: status %d: %s", i, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fetch %d writes other bytes than the fresh encode\n got %s\nwant %s", i, got, want)
			}
		}
	}

	f.Fuzz(func(t *testing.T, fill bool, body []byte) {
		path := fetchPath
		if fill {
			path = fillPath
		}
		before := pc.Len()
		code, got := peerPost(node, path, body)
		switch {
		case code == http.StatusBadRequest:
			if after := pc.Len(); after != before {
				t.Fatalf("a refused body changed the cache: %d entries, then %d", before, after)
			}
		case !fill && code == http.StatusOK:
			var k middleware.ResultKey
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&k); err != nil {
				t.Fatalf("fetch answered 200 to a body that does not decode: %v", err)
			}
			held := pc.local.Get(k)
			if held == nil {
				t.Fatal("fetch answered 200 for a key the cache does not hold")
			}
			if want := encode(t, held); !bytes.Equal(got, want) {
				t.Fatalf("fetch writes other bytes than the fresh encode\n got %s\nwant %s", got, want)
			}
		case !fill && code == http.StatusNoContent:
		case fill && code == http.StatusNoContent:
			var pf peerFill
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&pf); err != nil {
				t.Fatalf("fill answered 204 to a body that does not decode: %v", err)
			}
			if v, _ := node.dataVersion("twitter"); pf.Response == nil || pf.Key.DataVersion != v {
				return // dropped: nothing to serve
			}
			fetchTwice(t, pf.Key, encode(t, pf.Response))
		default:
			t.Fatalf("fill=%v: unexpected status %d: %s", fill, code, got)
		}
	})
}
