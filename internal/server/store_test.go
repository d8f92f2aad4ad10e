package server_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
)

// TestStoreJobRoundTrip checks the write-ahead job log: records survive a
// save/load cycle verbatim, load in submission order, and one corrupt
// file is reported without blocking the rest. An empty warm-start pool
// stays an empty pool, not a cold start.
func TestStoreJobRoundTrip(t *testing.T) {
	st, err := server.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	created := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	recs := []server.JobRecord{
		{ID: "job-2", Seq: 2, Tenant: "alice", State: server.StateRunning, Created: created,
			Spec: mustSpec(t, `{"algorithm": "fusion", "dataset": {"generator": "diag", "n": 10}, "options": {"min_count": 5, "pool": []}}`)},
		{ID: "job-1", Seq: 1, State: server.StateDone, Created: created,
			Spec: mustSpec(t, `{"algorithm": "apriori", "dataset": {"generator": "diag", "n": 8}, "options": {"min_count": 4}}`)},
	}
	for _, rec := range recs {
		if err := st.SaveJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupt record and a stray dotfile must be skipped, not fatal.
	if err := os.WriteFile(filepath.Join(st.Dir(), "jobs", "job-3.json"), []byte("{not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), "jobs", ".tmp-junk.json"), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}

	got, warns, err := st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "job-3") {
		t.Fatalf("want one warning about job-3, got %v", warns)
	}
	if len(got) != 2 || got[0].ID != "job-1" || got[1].ID != "job-2" {
		t.Fatalf("want [job-1 job-2] by seq, got %+v", got)
	}
	if got[1].Tenant != "alice" || got[1].State != server.StateRunning || !got[1].Created.Equal(created) {
		t.Fatalf("job-2 fields did not round-trip: %+v", got[1])
	}
	if pool := got[1].Spec.Options.Pool; pool == nil || len(pool) != 0 {
		t.Fatalf("job-2's empty warm-start pool came back as %#v", pool)
	}
	if pool := got[0].Spec.Options.Pool; pool != nil {
		t.Fatalf("job-1 has no pool but came back with %#v", pool)
	}

	if err := st.DeleteJob("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteJob("job-1"); err != nil { // idempotent
		t.Fatal(err)
	}
	got, _, err = st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "job-2" {
		t.Fatalf("after delete want [job-2], got %+v", got)
	}
}

// TestStoreResultRoundTrip persists a real mined Report and checks the
// reloaded patterns carry identical itemsets and supports.
func TestStoreResultRoundTrip(t *testing.T) {
	st, err := server.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	alg, err := engine.Get("fpgrowth")
	if err != nil {
		t.Fatal(err)
	}
	want, err := alg.Mine(context.Background(), datagen.Diag(12), engine.Options{MinCount: 6, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Patterns) == 0 {
		t.Fatal("fixture mined no patterns")
	}
	if err := st.SaveResult("job-7", want); err != nil {
		t.Fatal(err)
	}

	got, ok, err := st.LoadResult("job-7")
	if err != nil || !ok {
		t.Fatalf("LoadResult: ok=%v err=%v", ok, err)
	}
	if got.Algorithm != want.Algorithm || got.Stopped != want.Stopped || len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("report header did not round-trip: %+v vs %+v", got, want)
	}
	for i, p := range got.Patterns {
		w := want.Patterns[i]
		if p.Support() != w.Support() || p.Items.String() != w.Items.String() {
			t.Fatalf("pattern %d: got %v/%d want %v/%d", i, p.Items, p.Support(), w.Items, w.Support())
		}
	}

	if _, ok, err := st.LoadResult("job-none"); ok || err != nil {
		t.Fatalf("missing result: ok=%v err=%v", ok, err)
	}
}

// legacyResultReport is the Report behind testdata/legacy.result.json:
// Quality and Warnings set, Visited and Stopped zero.
func legacyResultReport() *engine.Report {
	return &engine.Report{
		Algorithm: "seqfusion",
		Patterns: []*dataset.Pattern{
			dataset.NewPatternCounted([]int{0, 2, 5, 9}, nil, 7),
			dataset.NewPatternCounted([]int{1, 3, 4}, nil, 11),
			dataset.NewPatternCounted([]int{6}, nil, 30),
		},
		InitPoolSize: 42,
		Iterations:   5,
		Warnings:     []string{`option MaxSize is ignored by algorithm "seqfusion"`},
		Quality:      &engine.Quality{Delta: 1.0 / 3},
	}
}

// TestStoreLoadsLegacyResult pins backward compatibility of result
// files: testdata/legacy.result.json was written by an earlier
// SaveResult (indented JSON, zero fields omitted) and must never be
// regenerated. Loading it must give back the source Report's hash.
func TestStoreLoadsLegacyResult(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy.result.json"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := server.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), "jobs", "job-1.result.json"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.LoadResult("job-1")
	if err != nil || !ok {
		t.Fatalf("LoadResult: ok=%v err=%v", ok, err)
	}
	if g, w := engine.ReportHash(got), engine.ReportHash(legacyResultReport()); g != w {
		t.Fatalf("legacy result hash %s, want %s", g, w)
	}
}

// TestStoreManifestAndBlobs checks the catalog side: content-addressed
// blobs, sorted manifest round-trip, and the missing-manifest = empty
// convention.
func TestStoreManifestAndBlobs(t *testing.T) {
	st, err := server.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if entries, err := st.LoadManifest(); err != nil || entries != nil {
		t.Fatalf("fresh store manifest: %v %v", entries, err)
	}

	data := []byte("1 2 3\n2 3\n")
	if err := st.SaveBlob("abc123", data); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveBlob("abc123", []byte("different")); err != nil { // content-addressed: first write wins
		t.Fatal(err)
	}
	got, err := st.LoadBlob("abc123")
	if err != nil || string(got) != string(data) {
		t.Fatalf("LoadBlob: %q %v", got, err)
	}

	entries := []server.ManifestEntry{
		{Name: "zed", SHA256: "abc123", Bytes: int64(len(data))},
		{Name: "alpha", SHA256: "abc123", Bytes: int64(len(data)), Tenant: "alice", RequestedFormat: "fimi"},
	}
	if err := st.SaveManifest(entries); err != nil {
		t.Fatal(err)
	}
	back, err := st.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "alpha" || back[1].Name != "zed" {
		t.Fatalf("manifest not sorted by name: %+v", back)
	}
	if back[0].Tenant != "alice" || back[0].RequestedFormat != "fimi" {
		t.Fatalf("manifest entry fields did not round-trip: %+v", back[0])
	}

	if err := st.DeleteBlob("abc123"); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteBlob("abc123"); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := st.LoadBlob("abc123"); !os.IsNotExist(err) {
		t.Fatalf("blob still readable after delete: %v", err)
	}
}

// mustSpec parses a JobSpec literal.
func mustSpec(t *testing.T, js string) server.JobSpec {
	t.Helper()
	var spec server.JobSpec
	if err := json.Unmarshal([]byte(js), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}
