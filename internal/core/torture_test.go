package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
)

// Crash-torture harness: a deterministic multi-session workload runs
// against a fault injector, a crash rule pulls the plug at failpoint k,
// the directory is reopened WITHOUT the injector, and recovery must
// restore exactly the promised state. Sweeping k across every failpoint
// of the workload (for several seeds) exercises a crash at every I/O the
// engine performs.

// tortureOutcome is what the workload promised before the plug was
// pulled: keys that must survive recovery, keys that must not, and
// commit-in-flight key groups where either all or none may survive —
// but never part of one.
type tortureOutcome struct {
	committed map[string][]int64
	aborted   map[string][]int64
	inDoubt   []map[string][]int64 // one group per unresolved transaction
}

func newTortureOutcome() *tortureOutcome {
	return &tortureOutcome{
		committed: map[string][]int64{},
		aborted:   map[string][]int64{},
	}
}

func (o *tortureOutcome) resolve(keys map[string][]int64, into map[string][]int64) {
	for tb, ks := range keys {
		into[tb] = append(into[tb], ks...)
	}
}

const tortureOps = 36

// runTortureWorkload drives the seeded workload against dir through inj.
// Decisions come only from the seed, so two runs with the same seed hit
// the injector's failpoints in the same order — which is what makes
// "crash at point k" reproducible. Returns the promised outcome and the
// number of failpoints the (un-crashed portion of the) workload reached.
func runTortureWorkload(t *testing.T, dir string, seed int64, inj *fault.Injector) (*tortureOutcome, int64) {
	t.Helper()
	db, err := Open(dir, Options{DOP: 1, FaultInjector: inj})
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	// Setup runs before Arm: the DDL and its checkpoint become the shim's
	// durable baseline, so the fault window covers only the workload.
	if _, err := db.Exec(`CREATE TABLE torture_h (k BIGINT, s VARCHAR(16))`); err != nil {
		t.Fatalf("seed %d: ddl: %v", seed, err)
	}
	if _, err := db.Exec(`CREATE TABLE torture_c (id BIGINT PRIMARY KEY CLUSTERED, v VARCHAR(16))`); err != nil {
		t.Fatalf("seed %d: ddl: %v", seed, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("seed %d: setup checkpoint: %v", seed, err)
	}
	inj.Arm()

	type sessState struct {
		s    *Session
		open bool
		keys map[string][]int64
	}
	sessions := make([]*sessState, 3)
	for i := range sessions {
		sessions[i] = &sessState{s: db.NewSession()}
	}
	rng := rand.New(rand.NewSource(seed))
	out := newTortureOutcome()
	nextKey := int64(1)
	openCount := 0

	finish := func(ss *sessState, commit bool) {
		defer func() { ss.open = false; ss.keys = nil; openCount-- }()
		if commit {
			if err := ss.s.Commit(); err != nil {
				if !inj.Crashed() {
					t.Fatalf("seed %d: commit failed without a crash: %v", seed, err)
				}
				// The crash landed inside (or before) this commit: the
				// record may or may not have become durable. All-or-nothing
				// is the only promise.
				out.inDoubt = append(out.inDoubt, ss.keys)
				return
			}
			out.resolve(ss.keys, out.committed)
			return
		}
		// Rolled back — or the rollback itself hit the crash. Either way no
		// commit record exists, so recovery must drop every row.
		_ = ss.s.Rollback()
		out.resolve(ss.keys, out.aborted)
	}

	for op := 0; op < tortureOps && !inj.Crashed(); op++ {
		if openCount == 0 && rng.Intn(8) == 0 {
			// Periodic checkpoint at a quiescent point (CHECKPOINT is
			// refused while a transaction is open).
			if err := db.Checkpoint(); err != nil && !inj.Crashed() {
				t.Fatalf("seed %d: checkpoint: %v", seed, err)
			}
			continue
		}
		ss := sessions[rng.Intn(len(sessions))]
		if !ss.open {
			if err := ss.s.Begin(); err != nil {
				break // only possible after the crash
			}
			ss.open = true
			ss.keys = map[string][]int64{}
			openCount++
		}
		batch := 1 + rng.Intn(4)
		insertErr := false
		for j := 0; j < batch; j++ {
			table, val := "torture_h", "'h'"
			if rng.Intn(2) == 1 {
				table, val = "torture_c", "'c'"
			}
			// A third of the statements insert 2-8 rows, so that crash
			// points land inside one statement's batch.
			rows := 1
			if rng.Intn(3) == 0 {
				rows = 2 + rng.Intn(7)
			}
			values := make([]string, rows)
			for r := range values {
				k := nextKey
				nextKey++
				ss.keys[table] = append(ss.keys[table], k)
				values[r] = fmt.Sprintf("(%d, %s)", k, val)
			}
			if _, err := ss.s.Exec(fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(values, ", "))); err != nil {
				insertErr = true
				break
			}
		}
		if insertErr {
			// The transaction never reached commit, so no commit record can
			// exist: every key it touched (including the failed one) must be
			// gone after recovery.
			finish(ss, false)
			continue
		}
		switch d := rng.Intn(10); {
		case d < 4:
			finish(ss, true)
		case d < 6:
			finish(ss, false)
		default:
			// Leave the transaction open; it grows when picked again.
		}
	}
	// Resolve stragglers so the promised state is closed-form.
	for _, ss := range sessions {
		if ss.open {
			finish(ss, true)
		}
	}
	points := inj.Points()
	_ = db.Close() // errors expected after a crash
	return out, points
}

// verifyTortureInvariants reopens dir without any injector — the reboot
// after the power loss — and checks every durability promise.
func verifyTortureInvariants(t *testing.T, dir, label string, out *tortureOutcome) {
	t.Helper()
	db, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatalf("%s: reopen after crash failed: %v", label, err)
	}
	defer db.Close()
	if err := db.healthErr(); err != nil {
		t.Errorf("%s: recovered database unhealthy: %v", label, err)
	}

	keyCol := map[string]string{"torture_h": "k", "torture_c": "id"}
	present := map[string]map[int64]bool{}
	for tb, col := range keyCol {
		res, err := db.Exec("SELECT " + col + " FROM " + tb)
		if err != nil {
			t.Fatalf("%s: scan %s after recovery: %v", label, tb, err)
		}
		present[tb] = map[int64]bool{}
		for _, r := range res.Rows {
			k := r[0].I
			if present[tb][k] {
				t.Errorf("%s: key %d duplicated in %s after recovery", label, k, tb)
			}
			present[tb][k] = true
		}
	}

	expected := map[string]map[int64]bool{"torture_h": {}, "torture_c": {}}
	for tb, ks := range out.committed {
		for _, k := range ks {
			expected[tb][k] = true
			if !present[tb][k] {
				t.Errorf("%s: committed key %d lost from %s", label, k, tb)
			}
		}
	}
	for tb, ks := range out.aborted {
		for _, k := range ks {
			if present[tb][k] {
				t.Errorf("%s: aborted key %d resurrected in %s", label, k, tb)
			}
		}
	}
	for i, grp := range out.inDoubt {
		have, miss := 0, 0
		for tb, ks := range grp {
			for _, k := range ks {
				expected[tb][k] = true
				if present[tb][k] {
					have++
				} else {
					miss++
				}
			}
		}
		if have > 0 && miss > 0 {
			t.Errorf("%s: in-doubt txn %d partially applied (%d rows present, %d missing)", label, i, have, miss)
		}
	}
	// No row may exist that nobody committed (or had in flight).
	for tb, ks := range present {
		for k := range ks {
			if !expected[tb][k] {
				t.Errorf("%s: unexplained key %d in %s after recovery", label, k, tb)
			}
		}
	}

	reports, err := db.VerifyIntegrity()
	if err != nil {
		t.Fatalf("%s: VerifyIntegrity: %v", label, err)
	}
	for _, rep := range reports {
		for _, f := range rep.Failures {
			t.Errorf("%s: integrity failure in %s: %s", label, rep.Table, f)
		}
	}
}

// TestCrashTortureSweep is the tentpole: for each seed it first runs the
// workload fault-free to count failpoints, then replays it crashing at
// point k for a sweep of k values (every third crash is a torn power
// loss that keeps a partial final write), reopening and checking
// invariants each time.
func TestCrashTortureSweep(t *testing.T) {
	seeds := []int64{1, 7, 42}
	targetPerSeed := int64(85) // >= 255 distinct crash points across seeds
	if testing.Short() {
		seeds = seeds[:2]
		targetPerSeed = 25
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			baseDir := filepath.Join(t.TempDir(), "base")
			baseInj := fault.New()
			out, points := runTortureWorkload(t, baseDir, seed, baseInj)
			if baseInj.Crashed() {
				t.Fatal("baseline run crashed with no rules")
			}
			if points == 0 {
				t.Fatal("workload reached no failpoints")
			}
			// The baseline's buffered state must survive an uninjected
			// reopen too (clean-shutdown write-back).
			if err := baseInj.WriteBack(); err != nil {
				t.Fatal(err)
			}
			verifyTortureInvariants(t, baseDir, "baseline", out)

			stride := points / targetPerSeed
			if stride < 1 {
				stride = 1
			}
			crashes := 0
			for k := int64(1); k <= points; k += stride {
				rule := &fault.Rule{Nth: k, Kind: fault.KindCrash}
				if k%3 == 0 {
					rule.TornFrac = 0.6
				}
				inj := fault.New(rule)
				dir := filepath.Join(t.TempDir(), fmt.Sprintf("crash%d", k))
				cout, _ := runTortureWorkload(t, dir, seed, inj)
				if !inj.Crashed() {
					t.Fatalf("crash point %d never fired: workload is not deterministic", k)
				}
				if err := inj.PersistErr(); err != nil {
					t.Fatalf("crash point %d: persisting crash image: %v", k, err)
				}
				verifyTortureInvariants(t, dir, fmt.Sprintf("crash@%d", k), cout)
				crashes++
			}
			t.Logf("seed %d: %d failpoints, %d crash points swept", seed, points, crashes)
		})
	}
}

// TestCrashTortureConcurrent crashes under truly concurrent sessions.
// Point ordering is racy here, so the crash lands somewhere different on
// every run — the recovery invariants must hold wherever it lands. Run
// under -race this also checks the injector and shim locking.
func TestCrashTortureConcurrent(t *testing.T) {
	for _, crashAt := range []int64{5, 25, 60} {
		crashAt := crashAt
		t.Run(fmt.Sprintf("point%d", crashAt), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			inj := fault.New(&fault.Rule{Nth: crashAt, Kind: fault.KindCrash})
			db, err := Open(dir, Options{DOP: 2, FaultInjector: inj})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`CREATE TABLE torture_h (k BIGINT, s VARCHAR(16))`); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`CREATE TABLE torture_c (id BIGINT PRIMARY KEY CLUSTERED, v VARCHAR(16))`); err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			inj.Arm()

			var mu sync.Mutex
			out := newTortureOutcome()
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s := db.NewSession()
					base := int64(g+1) * 100000
					for txn := int64(0); txn < 8; txn++ {
						if err := s.Begin(); err != nil {
							return
						}
						keys := map[string][]int64{}
						failed := false
						for j := int64(0); j < 3; j++ {
							k := base + txn*10 + j
							keys["torture_h"] = append(keys["torture_h"], k)
							if _, err := s.Exec(fmt.Sprintf("INSERT INTO torture_h VALUES (%d, 'c')", k)); err != nil {
								failed = true
								break
							}
						}
						if failed {
							_ = s.Rollback()
							mu.Lock()
							out.resolve(keys, out.aborted)
							mu.Unlock()
							return
						}
						err := s.Commit()
						mu.Lock()
						if err != nil {
							out.inDoubt = append(out.inDoubt, keys)
						} else {
							out.resolve(keys, out.committed)
						}
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			if !inj.Crashed() {
				t.Fatalf("workload finished before point %d", crashAt)
			}
			_ = db.Close()
			verifyTortureInvariants(t, dir, fmt.Sprintf("concurrent@%d", crashAt), out)
		})
	}
}
