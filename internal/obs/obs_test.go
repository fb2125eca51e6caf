package obs

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestOpProfileNilSafe(t *testing.T) {
	var p *OpProfile
	p.AddRows(5)
	p.AddBatches(1)
}

// TestCounterVocabulary holds the spine to its contract: every counter
// has one non-empty name of its own, Snapshot and Sub are right for every
// counter (a set with each counter driven to a different value minus itself
// is zero, minus zero is itself), a Sink credits the engine's set and the
// profile alike and the zero Sink nothing, and writers and a snapshotting
// reader may run together.
func TestCounterVocabulary(t *testing.T) {
	seen := map[string]Counter{}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" {
			t.Errorf("counter %d has no name", c)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
	}

	var engine Counters
	prof := &OpProfile{}
	sink := Sink{Engine: &engine, Prof: prof}
	for c := Counter(0); c < NumCounters; c++ {
		sink.Add(c, int64(c)+1)
		Sink{}.Add(c, 1)
	}
	snap := engine.Snapshot()
	for c := Counter(0); c < NumCounters; c++ {
		if snap[c] != int64(c)+1 || prof.Get(c) != int64(c)+1 {
			t.Errorf("%s: engine %d, profile %d, want %d", c, snap[c], prof.Get(c), int64(c)+1)
		}
	}
	if snap.Sub(snap) != (Snapshot{}) {
		t.Errorf("s.Sub(s) = %v, want zero", snap.Sub(snap))
	}
	if snap.Sub(Snapshot{}) != snap {
		t.Errorf("s.Sub(zero) = %v, want %v", snap.Sub(Snapshot{}), snap)
	}
	sum := func(cs ...Counter) (n int64) {
		for _, c := range cs {
			n += snap[c]
		}
		return n
	}
	if b, r, rows := prof.Spill(); b != sum(JoinSpilledBytes, SortSpilledBytes, AggSpilledBytes) ||
		r != sum(JoinSpilledPartitions, SortRuns, AggSpilledPartitions) ||
		rows != sum(JoinSpilledBuildRows, JoinSpilledProbeRows, SortSpilledRows, AggSpilledRows) {
		t.Errorf("Spill() = %d, %d, %d: not the sum of the join, sort and aggregate families", b, r, rows)
	}

	const writers, adds = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				sink.Add(Counter(i)%NumCounters, 1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var prev Snapshot
		for i := 0; i < 100; i++ {
			now := engine.Snapshot()
			for c, v := range now.Sub(prev) {
				if v < 0 {
					t.Errorf("%s went backwards by %d", Counter(c), -v)
				}
			}
			prev = now
		}
	}()
	wg.Wait()
	<-done
	var total int64
	for _, v := range engine.Snapshot().Sub(snap) {
		total += v
	}
	if total != writers*adds {
		t.Errorf("concurrent writers added %d events, want %d", total, writers*adds)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	var counters Counters
	r := NewRegistry(&counters)
	var v int64
	r.RegisterFunc("a.count", func() int64 { return v })
	r.RegisterFunc("b.count", func() int64 { return 7 })
	v = 3
	counters[ScanRows].Add(5)
	snap := r.Snapshot()
	if snap["a.count"] != 3 || snap["b.count"] != 7 || snap["scan.rows"] != 5 {
		t.Fatalf("snapshot = %v", snap)
	}
	names := r.Names()
	if len(names) != int(NumCounters)+2 || names[0] != "a.count" || names[1] != "b.count" || !sort.StringsAreSorted(names) {
		t.Fatalf("names = %v", names)
	}
	// Re-registering replaces.
	r.RegisterFunc("b.count", func() int64 { return 8 })
	if got := r.Snapshot()["b.count"]; got != 8 {
		t.Fatalf("replaced gauge = %d, want 8", got)
	}
}

func TestQueryLogRing(t *testing.T) {
	l := NewQueryLog(3, 2, 0)
	for i := 0; i < 5; i++ {
		l.Record(QueryRecord{SQL: fmt.Sprintf("q%d", i), Duration: time.Duration(i)})
	}
	got := l.Recent()
	if len(got) != 3 {
		t.Fatalf("recent len = %d, want 3", len(got))
	}
	for i, want := range []string{"q4", "q3", "q2"} {
		if got[i].SQL != want {
			t.Fatalf("recent[%d] = %q, want %q", i, got[i].SQL, want)
		}
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
	if len(l.Slow()) != 0 || l.SlowTotal() != 0 {
		t.Fatal("slow log captured with threshold disabled")
	}
}

func TestQueryLogSlowCapture(t *testing.T) {
	l := NewQueryLog(8, 2, 10*time.Millisecond)
	l.Record(QueryRecord{SQL: "fast", Duration: time.Millisecond, Profile: "p"})
	l.Record(QueryRecord{SQL: "slow1", Duration: 10 * time.Millisecond, Profile: "p1"})
	l.Record(QueryRecord{SQL: "slow2", Duration: 20 * time.Millisecond, Profile: "p2"})
	l.Record(QueryRecord{SQL: "slow3", Duration: 30 * time.Millisecond, Profile: "p3"})
	slow := l.Slow()
	if len(slow) != 2 {
		t.Fatalf("slow len = %d, want 2 (capped)", len(slow))
	}
	if slow[0].SQL != "slow2" || slow[1].SQL != "slow3" {
		t.Fatalf("slow = %q,%q", slow[0].SQL, slow[1].SQL)
	}
	if slow[1].Profile != "p3" {
		t.Fatal("slow record lost its profile")
	}
	if l.SlowTotal() != 3 {
		t.Fatalf("slow total = %d, want 3", l.SlowTotal())
	}
	// History records never keep the profile.
	for _, rec := range l.Recent() {
		if rec.Profile != "" {
			t.Fatalf("history record %q kept a profile", rec.SQL)
		}
	}
}

func TestQueryLogConcurrent(t *testing.T) {
	l := NewQueryLog(16, 4, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Record(QueryRecord{SQL: "q", Duration: time.Duration(i%3) * time.Millisecond})
				l.Recent()
				l.Slow()
			}
		}(w)
	}
	wg.Wait()
	if l.Total() != 1600 {
		t.Fatalf("total = %d, want 1600", l.Total())
	}
}
