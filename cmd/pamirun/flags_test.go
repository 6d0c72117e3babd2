package main

import (
	"strings"
	"testing"

	"pamigo/internal/scenario"
	"pamigo/internal/torus"
)

var demoDims = torus.Dims{2, 1, 1, 1, 1}

func TestValidateWireFlagsAccepts(t *testing.T) {
	wf, err := validateWireFlags(demoDims, 2, "127.0.0.1:0", "", "0:2", 7, -1)
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if wf.Lo != 0 || wf.Hi != 2 || wf.Partition != 7 {
		t.Fatalf("parsed flags wrong: %+v", wf)
	}
	// No range at all hosts the full partition.
	wf, err = validateWireFlags(demoDims, 2, "", "", "", 1, -1)
	if err != nil {
		t.Fatalf("full-range default rejected: %v", err)
	}
	if wf.Lo != 0 || wf.Hi != 4 {
		t.Fatalf("default range [%d,%d), want [0,4)", wf.Lo, wf.Hi)
	}
	// Join lists split on commas and trim spaces.
	wf, err = validateWireFlags(demoDims, 1, "", "127.0.0.1:7000, unix:/tmp/p1.sock", "1:2", 1, -1)
	if err != nil {
		t.Fatalf("join list rejected: %v", err)
	}
	if len(wf.Join) != 2 || wf.Join[1] != "unix:/tmp/p1.sock" {
		t.Fatalf("join list parsed wrong: %v", wf.Join)
	}
}

// Every rejection must say what is wrong AND what to do about it.
func TestValidateWireFlagsRejects(t *testing.T) {
	cases := []struct {
		name      string
		ppn       int
		listen    string
		join      string
		rankRange string
		die       int
		want      string
	}{
		{"bad format", 1, "x:0", "", "0-2", -1, `"lo:hi"`},
		{"not numbers", 1, "x:0", "", "a:b", -1, `"lo:hi"`},
		{"out of bounds", 1, "x:0", "", "0:5", -1, "outside the partition"},
		{"empty range", 1, "x:0", "", "1:1", -1, "lo must be below hi"},
		{"splits a node", 2, "x:0", "", "1:4", -1, "splits a node"},
		{"unreachable rest", 1, "", "", "0:1", -1, "-listen"},
		{"empty join element", 1, "", "a:1,,b:2", "", -1, "empty address"},
		{"die past end", 1, "x:0", "", "", scenario.ExchangeRounds, "past the end"},
		{"die single process", 1, "", "", "", 3, "multi-process"},
	}
	for _, tc := range cases {
		_, err := validateWireFlags(demoDims, tc.ppn, tc.listen, tc.join, tc.rankRange, 1, tc.die)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
