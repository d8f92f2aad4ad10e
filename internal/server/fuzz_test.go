package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// fuzzSpecEnv lazily builds the one manager whose configuration and
// catalog (holding the dataset "tiny") every FuzzJobSpec execution
// validates against.
var fuzzSpecEnv struct {
	once sync.Once
	mgr  *Manager
}

// decodeJobSpec decodes a POST /jobs body with the submit handler's
// settings.
func decodeJobSpec(b []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzJobSpec throws arbitrary bytes at the job-spec decoder and
// validator. Neither may panic, and every accepted spec must survive
// json.Marshal → decode → json.Marshal byte for byte, with its dataset,
// options and shard unchanged: persisted job records and shard leases are
// exactly that round trip, so a field that loses its value in it (an
// empty warm-start pool did once) changes what a recovered job or a
// leased shard mines.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"algorithm":"apriori","dataset":{"generator":"diag","n":10},"options":{"min_count":5,"max_size":2}}`))
	f.Add([]byte(`{"algorithm":"fusion","dataset":{"catalog":"tiny"},"options":{"k":10,"pool":[]}}`))
	f.Add([]byte(`{"algorithm":"fusion","dataset":{"catalog":"tiny"},"options":{"pool":[[0,1],[]],"keep_pool":true}}`))
	f.Add([]byte(`{"algorithm":"eclat","dataset":{"transactions":[[0,1,2],[1,2]]},"options":{"min_support":0.5},"shard":{"lo":0,"hi":1,"units":3}}`))
	f.Add([]byte(`{"algorithm":"apriori","dataset":{"generator":"quest","txns":100,"avg_txn_len":-0},"shard":{"whole":true},"timeout_ms":5}`))
	f.Add([]byte(`{"algorithm":"seqfusion","dataset":{"generator":"random","txns":9,"items":4,"density":1e-300,"transform":{"sample":0.5,"row_hi":3}},"options":{"tau":-0}}`))
	f.Add([]byte(`{"algorithm":"eclat","dataset":{"generator":"diag","n":4},"options":{"Observer":1}}`))
	f.Add([]byte(`{"algorithm":"topk","monitor":"tiny","dataset":{"catalog":"tiny"},"options":{"k":0,"seed":18446744073709551615}}`))
	f.Add([]byte(`{"algorithm":"closed","dataset":{"generator":"diagplus","n":3,"extra_rows":1,"extra_cols":1}} trailing`))
	f.Add([]byte(`{"algorithm":"apriori","dataset":{"transactions":[],"generator":"diag","n":4}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, b []byte) {
		fuzzSpecEnv.once.Do(func() {
			fuzzSpecEnv.mgr = NewManager(Config{Workers: 1})
			if _, _, err := fuzzSpecEnv.mgr.Catalog().PutOwned("tiny", "fimi", []byte("1 2 3\n2 3\n"), "", 0); err != nil {
				panic(err)
			}
		})
		m := fuzzSpecEnv.mgr
		spec, err := decodeJobSpec(b)
		if err != nil || spec.validate(m.cfg, m.catalog) != nil {
			return
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := decodeJobSpec(first)
		if err != nil {
			t.Fatalf("accepted spec does not decode from its own encoding %s: %v", first, err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("spec changed across a round trip:\n%s\n%s", first, second)
		}
		// Bytes alone miss a value the encoding drops on both passes:
		// what gets mined must come back too.
		if !reflect.DeepEqual(spec.Dataset, back.Dataset) {
			t.Fatalf("dataset changed across a round trip of %s:\n%+v\n%+v", first, spec.Dataset, back.Dataset)
		}
		if !reflect.DeepEqual(spec.Options, back.Options) || !reflect.DeepEqual(spec.Shard, back.Shard) {
			t.Fatalf("options or shard changed across a round trip of %s:\n%+v %+v\n%+v %+v", first, spec.Options, spec.Shard, back.Options, back.Shard)
		}
	})
}

// FuzzLoadJobs throws arbitrary bytes at the job store as one record
// file. LoadJobs may not panic, and every record it accepts must survive
// SaveJob → LoadJobs with the same encoding and the same options and
// shard: recovery re-runs a job from exactly this round trip.
func FuzzLoadJobs(f *testing.F) {
	f.Add([]byte(`{"id":"job-1","seq":1,"spec":{"algorithm":"apriori","dataset":{"generator":"diag","n":10},"options":{"min_count":5,"pool":[]}},"state":"queued","created_at":"2026-08-08T12:00:00Z"}`))
	f.Add([]byte(`{"id":"job-1","seq":1,"tenant":"alice","spec":{"algorithm":"eclat","dataset":{"transactions":[[0,1],[1]],"transform":{"sample":0.5}},"options":{"pool":null},"shard":{"lo":0,"hi":1,"units":2}},"state":"done","created_at":"2026-08-08T12:00:00+02:00","ended_at":"2026-08-08T12:00:01Z"}`))
	f.Add([]byte(`{"id":"../job-1","seq":1}`))
	f.Add([]byte(`{"id":"job-1","seq":-3}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(st.Dir(), storeJobsDir, "job-1.json"), b, 0o666); err != nil {
			t.Fatal(err)
		}
		recs, _, err := st.LoadJobs()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := st.SaveJob(rec); err != nil {
				t.Fatalf("accepted record does not save: %v", err)
			}
			back, warns, err := st.LoadJobs()
			if err != nil || len(warns) > 0 || len(back) != 1 {
				t.Fatalf("saved record does not load: %v %v %d records", err, warns, len(back))
			}
			first, _ := json.Marshal(rec)
			second, _ := json.Marshal(back[0])
			if !bytes.Equal(first, second) {
				t.Fatalf("record changed across a round trip:\n%s\n%s", first, second)
			}
			if !reflect.DeepEqual(rec.Spec.Options, back[0].Spec.Options) || !reflect.DeepEqual(rec.Spec.Shard, back[0].Spec.Shard) {
				t.Fatalf("options or shard changed across a round trip of %s", first)
			}
		}
	})
}

// FuzzLoadManifest throws arbitrary bytes at the catalog manifest.
// LoadManifest may not panic, and every manifest it accepts must survive
// SaveManifest → LoadManifest with the same encoding: catalog recovery
// replays each entry's blobs from exactly this round trip.
func FuzzLoadManifest(f *testing.F) {
	f.Add([]byte(`[{"name":"tiny","sha256":"ab","bytes":10,"created_at":"2026-08-08T12:00:00Z"}]`))
	f.Add([]byte(`[{"name":"b","requested_format":"csv","tenant":"t","sha256":"cd","bytes":3,"created_at":"2026-08-08T12:00:00Z","appends":[{"sha256":"ef","bytes":4}]},{"name":"a","sha256":"ab","bytes":1,"created_at":"2026-08-08T12:00:00-07:00"}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"name":"x"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(st.Dir(), storeCatalogDir, "manifest.json"), b, 0o666); err != nil {
			t.Fatal(err)
		}
		entries, err := st.LoadManifest()
		if err != nil {
			return
		}
		// SaveManifest sorts entries in place, and the store keeps that
		// order.
		if err := st.SaveManifest(entries); err != nil {
			t.Fatalf("accepted manifest does not save: %v", err)
		}
		back, err := st.LoadManifest()
		if err != nil {
			t.Fatalf("saved manifest does not load: %v", err)
		}
		first, _ := json.Marshal(entries)
		second, _ := json.Marshal(back)
		if !bytes.Equal(first, second) {
			t.Fatalf("manifest changed across a round trip:\n%s\n%s", first, second)
		}
	})
}

// FuzzLoadAuth throws arbitrary bytes at the tenant config loader.
// LoadAuth may not panic, and every config it accepts must give each
// tenant a non-empty unique name and key and non-negative quotas:
// authentication and admission trust exactly these properties.
func FuzzLoadAuth(f *testing.F) {
	f.Add([]byte(`{"tenants": [{"name": "alice", "key": "k1", "max_active_jobs": 2, "max_catalog_bytes": 1048576}, {"name": "bob", "key": "k2"}]}`))
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "k"}, {"name": "a", "key": "k2"}]}`))
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`))
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "k", "max_active_jobs": -1}]}`))
	f.Add([]byte(`{"tenants": [null]}`))
	f.Add([]byte(`{"tenants": [{"name": "anonymous", "key": "k"}]}`))
	f.Add([]byte(`{"tenants": [], "extra": 1}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "auth.json")
		if err := os.WriteFile(path, b, 0o666); err != nil {
			t.Fatal(err)
		}
		a, err := LoadAuth(path)
		if err != nil {
			return
		}
		if len(a.byKey) == 0 {
			t.Fatal("accepted a config without tenants")
		}
		names := make(map[string]bool)
		for key, tn := range a.byKey {
			switch {
			case tn == nil || key == "" || tn.Key != key || tn.Name == "":
				t.Fatalf("accepted tenant %+v under key %q", tn, key)
			case names[tn.Name]:
				t.Fatalf("accepted duplicate tenant name %q", tn.Name)
			case tn.MaxActiveJobs < 0 || tn.MaxCatalogBytes < 0:
				t.Fatalf("accepted negative quotas for %q", tn.Name)
			}
			names[tn.Name] = true
		}
	})
}
