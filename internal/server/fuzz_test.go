package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// fuzzAppendEnv lazily builds one shared in-memory server for all fuzz
// executions; each execution works on its own dataset names.
var fuzzAppendEnv struct {
	once sync.Once
	mgr  *Manager
	srv  *httptest.Server
	seq  atomic.Int64
}

// FuzzAppendRows throws arbitrary chunk bytes at the HTTP streaming
// append endpoint and checks the catalog's two safety invariants:
//
//   - an accepted append leaves the entry exactly equivalent to
//     re-uploading the byte-concatenation as one file (same lineage
//     SHA256, rows, universe), and
//   - a rejected append leaves the entry byte-for-byte at its
//     pre-append state — no torn commits, whatever the chunk contents.
//
// The ingest-level FuzzAppendChunk pins the Appender itself; this
// target covers the HTTP + catalog layers above it (admission, quota,
// cache, entry replacement).
func FuzzAppendRows(f *testing.F) {
	f.Add([]byte("1 2 3\n"))
	f.Add([]byte("4 5\n6\n"))
	f.Add([]byte(""))
	f.Add([]byte("not numbers\n"))
	f.Add([]byte("1 2"))                        // unterminated final line
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00})       // gzip magic, truncated
	f.Add([]byte("999999999999999999999999\n")) // over any item cap
	f.Add([]byte("1,2,3\n"))                    // CSV-ish text into a FIMI base

	base := []byte("1 2 3\n2 3\n")
	f.Fuzz(func(t *testing.T, chunk []byte) {
		fuzzAppendEnv.once.Do(func() {
			fuzzAppendEnv.mgr = NewManager(Config{Workers: 1})
			fuzzAppendEnv.srv = httptest.NewServer(Handler(fuzzAppendEnv.mgr))
		})
		mgr, srv := fuzzAppendEnv.mgr, fuzzAppendEnv.srv
		n := fuzzAppendEnv.seq.Add(1)
		name := fmt.Sprintf("fz%d", n)
		catalog := mgr.Catalog()
		if _, _, err := catalog.PutOwned(name, "fimi", base, "", 0); err != nil {
			t.Fatalf("base upload: %v", err)
		}
		defer catalog.Delete(name)
		before, _ := catalog.Get(name)

		resp, err := http.Post(srv.URL+"/datasets/"+name+"/rows", "application/octet-stream", bytes.NewReader(chunk))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		after, ok := catalog.Get(name)
		if !ok {
			t.Fatal("entry vanished")
		}
		concat := append(append([]byte(nil), base...), chunk...)
		if resp.StatusCode == http.StatusOK {
			// Accepted: must equal one-shot ingestion of the concatenation.
			refName := fmt.Sprintf("fzref%d", n)
			ref, _, err := catalog.PutOwned(refName, "fimi", concat, "", 0)
			if err != nil {
				t.Fatalf("append accepted but re-ingest of the same bytes failed: %v", err)
			}
			defer catalog.Delete(refName)
			if after.SHA256 != ref.SHA256 || after.Rows != ref.Rows || after.Items != ref.Items || after.Bytes != ref.Bytes {
				t.Fatalf("accepted append diverged from re-ingest:\nappend: %+v\nref:    %+v", after, ref)
			}
		} else {
			// Rejected: the entry must be untouched.
			if after.SHA256 != before.SHA256 || after.Rows != before.Rows || after.Appends != before.Appends {
				t.Fatalf("rejected append (status %d) mutated entry:\nbefore: %+v\nafter:  %+v", resp.StatusCode, before, after)
			}
		}
	})
}
