package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/world"
)

var testStudy = MustNewStudy(world.TestConfig())

func TestExperimentRegistryComplete(t *testing.T) {
	exps := Experiments()
	want := []string{
		"T1", "T2",
		"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13",
		"TA1", "TA2", "TA3", "TA4",
		"FA1", "FA2", "FA3", "FA4", "FA5", "FA6",
		"S533", "S534", "S722",
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
	}
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Run == nil {
			t.Errorf("experiment %q incomplete", id)
		}
	}
}

func TestRunEveryExperiment(t *testing.T) {
	// One pass over the complete registry: every experiment must produce
	// its artifact's signature content. The world-mutating experiments
	// (S722, E4) run last by registry order.
	wantTokens := map[string][]string{
		"T1":   {"Majestic", "Cisco", "Tranco"},
		"T2":   {"Valid HTTPS Certificates", "Hostname Mismatch"},
		"F1":   {"Country", "HTTPS%"},
		"F2":   {"Let's Encrypt", "Invalid%"},
		"F3":   {"Issued for exactly 10y"},
		"F4":   {"Host public key", "Negotiated protocol versions"},
		"F5":   {"USA validity by hosting", "cloud+CDN share"},
		"F6":   {"Figure 6", "government"},
		"F7":   {"per-bin valid-https rates"},
		"F8":   {"USA certificate validity"},
		"F9":   {"Figure 9"},
		"F10":  {"Figure 10 (USA)", "Figure 10 (ROK)"},
		"F11":  {"CA134100031"},
		"F12":  {"Figure 12"},
		"F13":  {"Population rank band", "Supportive responses"},
		"TA1":  {"Govt. State Only Domains", "End of Term 2016 Snapshot"},
		"TA2":  {"DOT .MIL"},
		"TA3":  {"South Korea Domains Set"},
		"TA4":  {"South Korean"},
		"FA1":  {"Censys Federal Snapshot"},
		"FA2":  {"EV certificate usage"},
		"FA3":  {"Top EV CAs for ROK"},
		"FA4":  {"Level", "Growth%"},
		"FA5":  {"Top linker"},
		"FA6":  {"Top EV CAs worldwide"},
		"S533": {"Certificates shared by"},
		"S534": {"CAA"},
		"S722": {"Improvement (conservative)"},
		"E1":   {"inclusion proof", "consistency proof"},
		"E2":   {"lookalike certificates flagged"},
		"E3":   {"adopt-https"},
		"E4":   {"diff: improved"},
		"E5":   {"preload"},
		"E6":   {"refused by the policy"},
		"E7":   {"final adoption", "post-campaign rescan"},
		"E8":   {"error-class decay", "terminal long tail"},
	}
	ctx := context.Background()
	for _, e := range Experiments() {
		out, err := e.Run(ctx, testStudy)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(out) < 40 {
			t.Errorf("%s: output suspiciously short: %q", e.ID, out)
		}
		tokens, ok := wantTokens[e.ID]
		if !ok {
			t.Errorf("%s: experiment missing from the expectation table", e.ID)
			continue
		}
		for _, tok := range tokens {
			if !strings.Contains(out, tok) {
				t.Errorf("%s: output missing %q", e.ID, tok)
			}
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment(context.Background(), testStudy, "Z999"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentCaseInsensitive(t *testing.T) {
	out, err := RunExperiment(context.Background(), testStudy, "t1")
	if err != nil || !strings.Contains(out, "Majestic") {
		t.Fatalf("t1: %v", err)
	}
}

func TestUseStore(t *testing.T) {
	s := MustNewStudy(world.Config{Seed: 3, Scale: 0.005})
	if err := s.UseStore("nss"); err != nil {
		t.Fatal(err)
	}
	if s.Store() != s.World.Stores["nss"] {
		t.Error("Store() is not the nss store after UseStore(\"nss\")")
	}
	if err := s.UseStore("bogus"); err == nil {
		t.Fatal("bogus store accepted")
	}
}

func TestStoreAblation(t *testing.T) {
	// The conservative Apple store marks at least as many hosts invalid
	// as the permissive Microsoft store (§4.3): with our modeled CA set
	// the counts match or Apple is stricter.
	ctx := context.Background()
	s := MustNewStudy(world.Config{Seed: 4, Scale: 0.01})
	apple := len(s.Worldwide(ctx).InvalidHosts())
	if err := s.UseStore("microsoft"); err != nil {
		t.Fatal(err)
	}
	microsoft := len(s.Worldwide(ctx).InvalidHosts())
	if apple < microsoft {
		t.Errorf("apple store invalid=%d < microsoft invalid=%d", apple, microsoft)
	}
}

func TestScanCachesReused(t *testing.T) {
	ctx := context.Background()
	s := MustNewStudy(world.Config{Seed: 5, Scale: 0.005})
	before := s.World.Net.DialCount()
	s.Worldwide(ctx)
	mid := s.World.Net.DialCount()
	s.Worldwide(ctx)
	after := s.World.Net.DialCount()
	if mid == before {
		t.Fatal("first scan made no dials")
	}
	if after != mid {
		t.Error("cached scan re-dialed the network")
	}
}

func TestRandDeterministic(t *testing.T) {
	a := testStudy.Rand("x").Int63()
	b := testStudy.Rand("x").Int63()
	c := testStudy.Rand("y").Int63()
	if a != b {
		t.Error("same label produced different streams")
	}
	if a == c {
		t.Error("different labels produced the same stream")
	}
}
