package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsInvalidRecipes pins that pfgen refuses, with an error and
// without writing a dataset, every recipe pfserve refuses — never a
// panic, a silent clamp or an empty file.
func TestRunRejectsInvalidRecipes(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "diag", "-n", "1"},
		{"-dataset", "quest", "-avg-txn-len", "900"},
		{"-dataset", "random", "-density", "0"},
		{"-dataset", "diagplus", "-rows-extra", "0"},
		{"-dataset", "zipf"},
		{"-dataset", "diag", "-sample", "1.5"},
		{"-dataset", "diag", "-rows", "5:3"},
		{"-dataset", "random", "-txns", "9223372036854775807", "-universe", "1"},
		{"-dataset", "diag", "-n", "4294967296"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%v: accepted", args)
		}
		if stdout.Len() > 0 || strings.Contains(stderr.String(), "panic") {
			t.Errorf("%v: wrote %d bytes, stderr %q", args, stdout.Len(), stderr.String())
		}
	}
}

// TestRunWritesDiag checks the accepted path: Diag_4 in FIMI on stdout.
func TestRunWritesDiag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dataset", "diag", "-n", "4"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if want := "1 2 3\n0 2 3\n0 1 3\n0 1 2\n"; stdout.String() != want {
		t.Fatalf("stdout %q, want %q", stdout.String(), want)
	}
}
