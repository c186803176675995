package world

import (
	"math/rand"
	"testing"
	"time"
)

func TestChangeTailCursor(t *testing.T) {
	w := MustBuild(Config{Seed: 21, Scale: 0.005})
	events, cursor := w.ChangeTail(0)
	if len(events) != 0 || cursor != 0 {
		t.Fatalf("fresh tail = %d events, cursor %d", len(events), cursor)
	}

	host := w.GovHosts[0]
	at := w.ScanTime.Add(time.Hour)
	w.recordChange(at, host, ConfigFlipped)
	w.recordChange(at.Add(time.Minute), host, CertRotated)

	events, cursor = w.ChangeTail(cursor)
	if len(events) != 2 || cursor != 2 {
		t.Fatalf("tail = %d events, cursor %d", len(events), cursor)
	}
	if events[0].Kind != ConfigFlipped || events[1].Kind != CertRotated {
		t.Fatalf("events = %v", events)
	}
	if events[0].Hostname != host || !events[0].At.Equal(at) {
		t.Fatalf("event 0 = %+v", events[0])
	}

	// Caught up, clamped below, clamped above.
	if events, cursor = w.ChangeTail(cursor); len(events) != 0 || cursor != 2 {
		t.Fatalf("caught-up tail = %d events, cursor %d", len(events), cursor)
	}
	if events, _ := w.ChangeTail(-1); len(events) != 2 {
		t.Fatalf("negative cursor tailed %d events", len(events))
	}
	if events, cursor := w.ChangeTail(50); len(events) != 0 || cursor != 2 {
		t.Fatalf("overshoot tail = %d events, cursor %d", len(events), cursor)
	}
}

func TestRemediateEmitsChanges(t *testing.T) {
	w := MustBuild(Config{Seed: 22, Scale: 0.01})
	invalid := make([]string, 0, 64)
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Injected != ClassNone && s.Injected != ClassValid && s.Serving.HasHTTPS() {
			invalid = append(invalid, h)
		}
	}
	if len(invalid) == 0 {
		t.Fatal("no invalid hosts to remediate")
	}
	out := w.Remediate(invalid, DefaultRemediationRates(), rand.New(rand.NewSource(5)))

	byKind := map[ChangeKind][]string{}
	events, _ := w.ChangeTail(0)
	for _, e := range events {
		byKind[e.Kind] = append(byKind[e.Kind], e.Hostname)
		if !e.At.Equal(FollowUpScanTime) {
			t.Fatalf("remediation event %+v not stamped at the follow-up scan", e)
		}
	}
	if got, want := len(byKind[SiteFixed]), len(out.Fixed); got != want {
		t.Errorf("SiteFixed events = %d, fixed hosts = %d", got, want)
	}
	if got, want := len(byKind[SiteRemoved]), len(out.Removed); got != want {
		t.Errorf("SiteRemoved events = %d, removed hosts = %d", got, want)
	}
	if got, want := len(byKind[GainedHTTPS]), len(out.NewlyServingHosts); got != want {
		t.Errorf("GainedHTTPS events = %d, newly serving = %d", got, want)
	}
	if got, want := len(byKind[SiteRevived]), out.RevivedValid+out.RevivedInvalid; got != want {
		t.Errorf("SiteRevived events = %d, revived hosts = %d", got, want)
	}
}

func TestRotateCertLogsToCT(t *testing.T) {
	w := MustBuild(Config{Seed: 23, Scale: 0.005})
	// Find an https host whose current chain is CA-issued.
	var host string
	for _, h := range w.GovHosts {
		s := w.Sites[h]
		if s.Serving.HasHTTPS() && len(s.Chain) > 0 && s.Issuer != "" {
			host = h
			break
		}
	}
	if host == "" {
		t.Fatal("no CA-issued https host found")
	}
	before := w.CT.Size()

	// Reissue through the churn factory and rotate.
	s := w.Sites[host]
	f := newCertFactory(w, rand.New(rand.NewSource(9)))
	f.configure(s, ClassValid, caMixWorldwide)
	if !w.RotateCert(host, s.Chain) {
		t.Fatal("RotateCert refused")
	}

	if got := w.CT.Size(); got != before+1 {
		t.Fatalf("CT size = %d, want %d (fresh issuance must log)", got, before+1)
	}
	entries, _ := w.CT.TailFrom(before)
	if len(entries) != 1 || entries[0].Cert != s.Chain[0] {
		t.Fatalf("CT tail = %v", entries)
	}
	if want := s.Chain[0].NotBefore.Add(time.Minute); !entries[0].Timestamp.Equal(want) {
		t.Fatalf("CT timestamp = %v, want %v", entries[0].Timestamp, want)
	}
	events, _ := w.ChangeTail(0)
	last := events[len(events)-1]
	if last.Kind != CertRotated || last.Hostname != host {
		t.Fatalf("last event = %+v", last)
	}
}

func TestChurnTickDeterministic(t *testing.T) {
	run := func() ([]string, []Change, int) {
		w := MustBuild(Config{Seed: 24, Scale: 0.005})
		r := rand.New(rand.NewSource(31))
		at := w.ScanTime.Add(24 * time.Hour)
		var touched []string
		for i := 0; i < 3; i++ {
			touched = append(touched, w.ChurnTick(r, at.Add(time.Duration(i)*time.Hour), 8)...)
		}
		events, _ := w.ChangeTail(0)
		return touched, events, w.CT.Size()
	}
	t1, e1, ct1 := run()
	t2, e2, ct2 := run()
	if len(t1) == 0 {
		t.Fatal("churn touched no hosts")
	}
	if len(t1) != len(t2) || len(e1) != len(e2) || ct1 != ct2 {
		t.Fatalf("churn diverged: %d/%d touched, %d/%d events, CT %d/%d",
			len(t1), len(t2), len(e1), len(e2), ct1, ct2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("touched[%d] = %q vs %q", i, t1[i], t2[i])
		}
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d = %+v vs %+v", i, e1[i], e2[i])
		}
	}
	// Every touched host produced exactly one event.
	if len(e1) != len(t1) {
		t.Fatalf("%d events for %d touched hosts", len(e1), len(t1))
	}
}
