package datagen

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/itemset"
	"repro/internal/rng"
)

// TestSpecBuildMatchesGenerators pins every generator of the catalogue:
// Spec.Build writes the same FIMI bytes as the direct call, reports the
// same planted patterns, and stays within Spec.Shape.
func TestSpecBuildMatchesGenerators(t *testing.T) {
	replace, paths := Replace(3)
	microarray, _ := Microarray(2)
	cases := []struct {
		spec    Spec
		want    *dataset.Dataset
		planted []itemset.Itemset
	}{
		{Spec{Generator: "diag", N: 7}, Diag(7), nil},
		{Spec{Generator: "diagplus", N: 6, ExtraRows: 3, ExtraCols: 5}, DiagPlus(6, 3, 5), nil},
		{Spec{Generator: "random", Txns: 40, Items: 12, Density: 0.3, Seed: 9}, Random(rng.New(9), 40, 12, 0.3), nil},
		{Spec{Generator: "replace", Seed: 3}, replace, paths},
		{Spec{Generator: "microarray", Seed: 2}, microarray, nil},
		{Spec{Generator: "quest", Txns: 300, Items: 80, AvgTxnLen: 6, Seed: 4}, Quest(rng.New(4), QuestConfig{Txns: 300, Items: 80, AvgTxnLen: 6}), nil},
		{Spec{Generator: "quest", Seed: 5}, Quest(rng.New(5), QuestConfig{}), nil},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		got, planted := tc.spec.Build()
		var gotBytes, wantBytes bytes.Buffer
		if err := got.Write(&gotBytes); err != nil {
			t.Fatal(err)
		}
		if err := tc.want.Write(&wantBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
			t.Errorf("%+v: Build differs from the direct generator call", tc.spec)
		}
		if !reflect.DeepEqual(planted, tc.planted) {
			t.Errorf("%+v: planted %v, want %v", tc.spec, planted, tc.planted)
		}
		rows, items := tc.spec.Shape()
		if got.Size() > rows || got.NumItems() > items {
			t.Errorf("%+v: built %d×%d exceeds Shape %d×%d", tc.spec, got.Size(), got.NumItems(), rows, items)
		}
	}
}

// TestSpecValidateRejects pins the recipes no generator may be asked
// for: each would panic, clamp silently or make an empty dataset.
func TestSpecValidateRejects(t *testing.T) {
	for _, s := range []Spec{
		{Generator: "zipf", N: 10},
		{},
		{Generator: "diag", N: 1},
		{Generator: "diagplus", N: 2, ExtraRows: 0, ExtraCols: 1},
		{Generator: "diagplus", N: 2, ExtraRows: 1, ExtraCols: 0},
		{Generator: "random", Txns: 0, Items: 4, Density: 0.5},
		{Generator: "random", Txns: 4, Items: 4, Density: 0},
		{Generator: "random", Txns: 4, Items: 4, Density: 1.5},
		{Generator: "random", Txns: 4, Items: 4, Density: math.NaN()},
		{Generator: "quest", AvgTxnLen: MaxQuestMean + 1},
		{Generator: "quest", AvgPatLen: MaxQuestMean + 1},
		{Generator: "quest", Corr: -0.5},
		{Generator: "quest", Corrupt: math.Inf(1)},
		{Generator: "quest", Txns: -1},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: accepted", s)
		}
	}
}

// TestSpecShapeSaturates pins the overflow-safe shape: parameters whose
// sum wraps an int read as math.MaxInt rows, so a cell cap refuses them.
func TestSpecShapeSaturates(t *testing.T) {
	s := Spec{Generator: "diagplus", N: 2, ExtraRows: math.MaxInt - 1, ExtraCols: 1}
	if rows, items := s.Shape(); rows != math.MaxInt || items != 3 {
		t.Fatalf("diagplus overflow shape %d×%d, want %d×3", rows, items, math.MaxInt)
	}
	s = Spec{Generator: "random", Txns: math.MaxInt, Items: 1, Density: 0.5}
	if rows, _ := s.Shape(); rows != math.MaxInt {
		t.Fatalf("random shape rows %d, want %d", rows, math.MaxInt)
	}
}
