package engine_test

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
)

// FuzzDecodeReport throws arbitrary bytes at DecodeReport, the one
// decoder of the job server's result files and of peer partials. It
// must never panic, and a Report it accepts must survive the canonical
// encoding: decoding EncodeReport's bytes gives back the same
// ReportHash.
func FuzzDecodeReport(f *testing.F) {
	alg, err := engine.Get("fpgrowth")
	if err != nil {
		f.Fatal(err)
	}
	rep, err := alg.Mine(context.Background(), datagen.Diag(6), engine.Options{MinCount: 3, K: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(engine.EncodeReport(rep))
	// A result file of the earlier indented, omitempty store format.
	f.Add([]byte("{\n  \"algorithm\": \"seqfusion\",\n  \"patterns\": [\n    {\"items\": [0, 2], \"support\": 7}\n  ],\n  \"iterations\": 5,\n  \"quality\": {\"delta\": 0.375}\n}\n"))
	// A served /result body: the canonical fields plus extra keys.
	f.Add([]byte(`{"algorithm":"eclat","patterns":[{"items":[1],"support":2,"size":1}],"total_patterns":1,"truncated":false,"stopped":true}`))
	f.Add([]byte(`{"patterns":[{"items":null,"support":0}],"warnings":[],"quality":null}`))
	f.Add([]byte(`{"patterns":[{"items":[3],"support":-1}]}`))
	f.Add([]byte(`{"patterns":[{"items":[3],"support":9223372036854775807}]}`))
	f.Add([]byte(`{"warnings":["\xff"],"quality":{"delta":-0}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := engine.DecodeReport(b)
		if err != nil {
			return
		}
		want := engine.ReportHash(rep)
		back, err := engine.DecodeReport(engine.EncodeReport(rep))
		if err != nil {
			t.Fatalf("re-decoding the canonical encoding of an accepted report: %v", err)
		}
		if got := engine.ReportHash(back); got != want {
			t.Fatalf("hash changed across a canonical round trip: %s, want %s\ninput: %q", got, want, b)
		}
	})
}
