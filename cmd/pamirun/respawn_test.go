package main

import (
	"slices"
	"strings"
	"testing"
)

func TestSplitFlagArg(t *testing.T) {
	for _, tc := range []struct {
		arg      string
		name     string
		hasValue bool
	}{
		{"-listen=127.0.0.1:0", "listen", true},
		{"--listen=127.0.0.1:0", "listen", true},
		{"-listen", "listen", false},
		{"--respawn", "respawn", false},
		{"-faults=drop=0.05,corrupt=0.02", "faults", true}, // only the first '=' splits
		{"127.0.0.1:0", "", false},                         // a value, not a flag
		{"", "", false},
	} {
		if name, hasValue := splitFlagArg(tc.arg); name != tc.name || hasValue != tc.hasValue {
			t.Errorf("splitFlagArg(%q) = %q, %v; want %q, %v", tc.arg, name, hasValue, tc.name, tc.hasValue)
		}
	}
}

func TestFindFlagValue(t *testing.T) {
	args := strings.Fields("-recover=auto -respawn -listen 127.0.0.1:7861 --rank-range=0:1 -faults=drop=0.05,corrupt=0.02 -die-round")
	for flagName, want := range map[string]string{
		"recover":    "auto",
		"listen":     "127.0.0.1:7861",
		"rank-range": "0:1",
		"faults":     "drop=0.05,corrupt=0.02",
		"die-round":  "", // last token, no value follows
		"join":       "", // absent
	} {
		if got := findFlagValue(args, flagName); got != want {
			t.Errorf("findFlagValue(%q) = %q, want %q", flagName, got, want)
		}
	}
}

// Every spelling the respawn supervisor rewrites: -respawn dropped and
// never eating the next token, -listen pinned, -die-round kept for
// incarnation 0 only, a stale -incarnation replaced, the rest untouched.
func TestRewriteWorkerArgs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   string
		listen string
		inc    int
		want   string
	}{
		{"equals forms, first launch",
			"-recover=auto -respawn -spares=2 -listen=127.0.0.1:0 -die-round=7", "127.0.0.1:4100", 0,
			"-recover=auto -spares=2 -listen=127.0.0.1:4100 -die-round=7 -incarnation=0"},
		{"space forms, first launch",
			"-recover auto -respawn -listen 127.0.0.1:0 -die-round 7 -dims 2x1x1x1x1", "127.0.0.1:4100", 0,
			"-recover auto -listen=127.0.0.1:4100 -die-round 7 -dims 2x1x1x1x1 -incarnation=0"},
		{"relaunch drops -die-round and its value",
			"-respawn -die-round 7 -listen 127.0.0.1:0 -ppn 1", "127.0.0.1:4100", 1,
			"-listen=127.0.0.1:4100 -ppn 1 -incarnation=1"},
		{"relaunch drops -die-round=N",
			"--respawn --die-round=7 -join=127.0.0.1:4100", "", 2,
			"-join=127.0.0.1:4100 -incarnation=2"},
		{"boolean -respawn does not swallow the next flag",
			"-respawn -v -stats", "", 0,
			"-v -stats -incarnation=0"},
		{"a stale -incarnation in either form is replaced",
			"-incarnation 5 -v -incarnation=6", "", 3,
			"-v -incarnation=3"},
		{"a dialer has no -listen to pin, and none is invented",
			"-join 127.0.0.1:4100 -rank-range 1:2", "", 0,
			"-join 127.0.0.1:4100 -rank-range 1:2 -incarnation=0"},
		{"a unix listen address passes through unpinned",
			"-listen unix:/tmp/p0.sock", "unix:/tmp/p0.sock", 1,
			"-listen=unix:/tmp/p0.sock -incarnation=1"},
	} {
		got := rewriteWorkerArgs(strings.Fields(tc.args), tc.listen, tc.inc)
		if !slices.Equal(got, strings.Fields(tc.want)) {
			t.Errorf("%s:\n got  %q\n want %q", tc.name, got, strings.Fields(tc.want))
		}
	}
}

func TestResolveListenAddr(t *testing.T) {
	for _, fixed := range []string{"", "unix:/tmp/p0.sock", "127.0.0.1:7861", "not an address"} {
		if got, err := resolveListenAddr(fixed); err != nil || got != fixed {
			t.Errorf("resolveListenAddr(%q) = %q, %v; want it unchanged", fixed, got, err)
		}
	}
	got, err := resolveListenAddr("127.0.0.1:0")
	if err != nil || !strings.HasPrefix(got, "127.0.0.1:") || strings.HasSuffix(got, ":0") {
		t.Errorf("resolveListenAddr pinned port 0 to %q, %v", got, err)
	}
}
