package observatory

import (
	"container/heap"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/resultset"
	"repro/internal/scanner"
)

var qt0 = time.Date(2020, 4, 26, 0, 0, 0, 0, time.UTC)

func newQueueOnly(refill, burst int) *Observatory {
	return &Observatory{
		Cfg:    Config{RefillPerTick: refill, Burst: burst},
		queued: make(map[string]*dirtyHost),
		tokens: burst,
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	o := newQueueOnly(100, 100)
	var stat TickStat
	o.dirty("churn-b.gov.xx", false, qt0, &stat)
	o.dirty("churn-a.gov.xx", false, qt0, &stat)
	o.dirty("fresh-z.gov.xx", true, qt0.Add(time.Hour), &stat)
	o.dirty("fresh-a.gov.xx", true, qt0.Add(time.Hour), &stat)
	o.dirty("early-churn.gov.xx", false, qt0.Add(-time.Hour), &stat)

	got := o.admit(qt0)
	want := []string{
		// Fresh first (same since → hostname order), then churn by
		// (since, hostname).
		"fresh-a.gov.xx", "fresh-z.gov.xx",
		"early-churn.gov.xx", "churn-a.gov.xx", "churn-b.gov.xx",
	}
	if len(got) != len(want) {
		t.Fatalf("admitted %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("admitted[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	if stat.FreshDirty != 2 || stat.ChurnDirty != 3 {
		t.Fatalf("stat = %+v", stat)
	}
}

func TestQueueTokenBucketLimitsChurnOnly(t *testing.T) {
	o := newQueueOnly(1, 2)
	o.tokens = 0
	var stat TickStat
	for _, h := range []string{"c1.gov.xx", "c2.gov.xx", "c3.gov.xx", "c4.gov.xx"} {
		o.dirty(h, false, qt0, &stat)
	}
	for _, h := range []string{"f1.gov.xx", "f2.gov.xx", "f3.gov.xx"} {
		o.dirty(h, true, qt0, &stat)
	}

	// Refill of 1: every fresh host admitted, exactly one churn host.
	got := o.admit(qt0)
	if len(got) != 4 {
		t.Fatalf("admitted %v, want 3 fresh + 1 churn", got)
	}
	for i, h := range []string{"f1.gov.xx", "f2.gov.xx", "f3.gov.xx", "c1.gov.xx"} {
		if got[i] != h {
			t.Fatalf("admitted[%d] = %q, want %q", i, got[i], h)
		}
	}
	if o.queue.Len() != 3 {
		t.Fatalf("queue depth = %d, want 3 deferred churn hosts", o.queue.Len())
	}

	// Next tick drains one more; the bucket never exceeds Burst.
	if got := o.admit(qt0.Add(time.Hour)); len(got) != 1 || got[0] != "c2.gov.xx" {
		t.Fatalf("second admit = %v", got)
	}
	o.queue = nil
	for i := 0; i < 5; i++ {
		o.admit(qt0.Add(time.Duration(2+i) * time.Hour))
	}
	if o.tokens != 2 {
		t.Fatalf("tokens = %d, want clamped at burst 2", o.tokens)
	}
}

func TestQueueDedupAndUpgrade(t *testing.T) {
	o := newQueueOnly(0, 1)
	o.tokens = 0
	var stat TickStat
	o.dirty("host.gov.xx", false, qt0, &stat)
	o.dirty("host.gov.xx", false, qt0.Add(time.Hour), &stat) // duplicate: no-op
	if o.queue.Len() != 1 || stat.ChurnDirty != 1 {
		t.Fatalf("queue = %d entries, stat = %+v", o.queue.Len(), stat)
	}

	// Upgrade to fresh re-prioritizes without duplicating, and the host
	// now bypasses the empty token bucket.
	o.dirty("host.gov.xx", true, qt0.Add(2*time.Hour), &stat)
	if o.queue.Len() != 1 {
		t.Fatalf("queue = %d entries after upgrade", o.queue.Len())
	}
	got := o.admit(qt0)
	if len(got) != 1 || got[0] != "host.gov.xx" {
		t.Fatalf("admit after upgrade = %v", got)
	}
}

func TestExpiryHeapOrder(t *testing.T) {
	var q expiryHeap
	heap.Push(&q, expiryEntry{at: qt0.Add(2 * time.Hour), hostname: "b.gov.xx"})
	heap.Push(&q, expiryEntry{at: qt0, hostname: "z.gov.xx"})
	heap.Push(&q, expiryEntry{at: qt0, hostname: "a.gov.xx"})
	heap.Push(&q, expiryEntry{at: qt0.Add(time.Hour), hostname: "m.gov.xx"})

	var got []string
	for q.Len() > 0 {
		got = append(got, heap.Pop(&q).(expiryEntry).hostname)
	}
	want := []string{"a.gov.xx", "z.gov.xx", "m.gov.xx", "b.gov.xx"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func leafRow(host string, notAfter time.Time) scanner.Result {
	return scanner.Result{
		Hostname:  host,
		Available: true,
		Chain:     []*cert.Certificate{{NotAfter: notAfter}},
	}
}

// TestRearmSkipsUnchangedExpiry pins the expiry-heap invariant rearm
// relies on: a rescanned row whose leaf keeps the replaced row's
// NotAfter already has its entry queued, so nothing is pushed; every
// other row with a live leaf gets exactly one new entry.
func TestRearmSkipsUnchangedExpiry(t *testing.T) {
	exp := qt0.Add(48 * time.Hour)
	prev := resultset.New([]scanner.Result{
		leafRow("same.gov.xx", exp),
		leafRow("rotated.gov.xx", exp),
		leafRow("lapsed.gov.xx", qt0.Add(-time.Hour)),
		{Hostname: "plain.gov.xx", Available: true},
	}, resultset.Options{})
	o := newQueueOnly(1, 1)
	// The entries New arms from prev at qt0: live leaves only.
	heap.Push(&o.expiry, expiryEntry{at: exp, hostname: "same.gov.xx"})
	heap.Push(&o.expiry, expiryEntry{at: exp, hostname: "rotated.gov.xx"})

	now := qt0.Add(12 * time.Hour)
	renewed := exp.Add(90 * 24 * time.Hour)
	o.rearm(prev, []scanner.Result{
		leafRow("same.gov.xx", exp),        // unchanged expiry: entry still queued
		leafRow("rotated.gov.xx", renewed), // new expiry: pushed beside the stale one
		leafRow("lapsed.gov.xx", renewed),  // old leaf had expired: pushed
		leafRow("plain.gov.xx", renewed),   // gained a chain: pushed
	}, now)

	var got []expiryEntry
	for o.expiry.Len() > 0 {
		got = append(got, heap.Pop(&o.expiry).(expiryEntry))
	}
	want := []expiryEntry{
		{at: exp, hostname: "rotated.gov.xx"},
		{at: exp, hostname: "same.gov.xx"},
		{at: renewed, hostname: "lapsed.gov.xx"},
		{at: renewed, hostname: "plain.gov.xx"},
		{at: renewed, hostname: "rotated.gov.xx"},
	}
	if len(got) != len(want) {
		t.Fatalf("expiry heap = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].at.Equal(want[i].at) || got[i].hostname != want[i].hostname {
			t.Fatalf("expiry heap = %v, want %v", got, want)
		}
	}
}
