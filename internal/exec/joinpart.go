package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// SpillFile is a temp row file used by joins whose build side exceeds the
// memory budget. Implemented by package storage (paged temp files read
// through the buffer pool); exec only sees this contract so the operator
// layer stays storage-agnostic. Append must be safe for concurrent use.
type SpillFile interface {
	Append(row sqltypes.Row) error
	Rows() int64
	Bytes() int64
	Iter() (RowIterator, error)
	Release() error
}

// SpillStore creates spill files; provided to the planner by the engine.
type SpillStore interface {
	Create() (SpillFile, error)
}

// JoinStats accumulates partitioned-join counters across queries. All
// fields are atomics: parallel probe workers update them concurrently and
// monitoring can snapshot mid-query.
type JoinStats struct {
	BuildRows         atomic.Int64 // rows routed on the build side
	ProbeRows         atomic.Int64 // rows routed on the probe side
	SpilledPartitions atomic.Int64 // partitions that exceeded the budget
	SpilledBuildRows  atomic.Int64 // build rows written to spill files
	SpilledProbeRows  atomic.Int64 // probe rows written to spill files
	SpillRecursions   atomic.Int64 // spilled partitions re-joined from disk
	BloomChecks       atomic.Int64 // probe rows tested against a build Bloom filter
	BloomDrops        atomic.Int64 // probe rows dropped by the Bloom filter
	// BloomDropsByPart resolves the drops per hash partition (the filter
	// runs below the exchange, so these show which partitions the early
	// drops spared — spilled partitions in particular). Joins widened past
	// DefaultJoinPartitions fold counts modulo the array size.
	BloomDropsByPart [DefaultJoinPartitions]atomic.Int64
}

// JoinStatsSnapshot is a point-in-time copy of JoinStats.
type JoinStatsSnapshot struct {
	BuildRows         int64
	ProbeRows         int64
	SpilledPartitions int64
	SpilledBuildRows  int64
	SpilledProbeRows  int64
	SpillRecursions   int64
	BloomChecks       int64
	BloomDrops        int64
	BloomDropsByPart  [DefaultJoinPartitions]int64
}

// Snapshot reads the counters; safe to call during queries.
func (s *JoinStats) Snapshot() JoinStatsSnapshot {
	out := JoinStatsSnapshot{
		BuildRows:         s.BuildRows.Load(),
		ProbeRows:         s.ProbeRows.Load(),
		SpilledPartitions: s.SpilledPartitions.Load(),
		SpilledBuildRows:  s.SpilledBuildRows.Load(),
		SpilledProbeRows:  s.SpilledProbeRows.Load(),
		SpillRecursions:   s.SpillRecursions.Load(),
		BloomChecks:       s.BloomChecks.Load(),
		BloomDrops:        s.BloomDrops.Load(),
	}
	for i := range s.BloomDropsByPart {
		out.BloomDropsByPart[i] = s.BloomDropsByPart[i].Load()
	}
	return out
}

// Sub returns the counter deltas since an earlier snapshot.
func (s JoinStatsSnapshot) Sub(earlier JoinStatsSnapshot) JoinStatsSnapshot {
	out := JoinStatsSnapshot{
		BuildRows:         s.BuildRows - earlier.BuildRows,
		ProbeRows:         s.ProbeRows - earlier.ProbeRows,
		SpilledPartitions: s.SpilledPartitions - earlier.SpilledPartitions,
		SpilledBuildRows:  s.SpilledBuildRows - earlier.SpilledBuildRows,
		SpilledProbeRows:  s.SpilledProbeRows - earlier.SpilledProbeRows,
		SpillRecursions:   s.SpillRecursions - earlier.SpillRecursions,
		BloomChecks:       s.BloomChecks - earlier.BloomChecks,
		BloomDrops:        s.BloomDrops - earlier.BloomDrops,
	}
	for i := range s.BloomDropsByPart {
		out.BloomDropsByPart[i] = s.BloomDropsByPart[i] - earlier.BloomDropsByPart[i]
	}
	return out
}

// DefaultJoinPartitions is the fan-out when the caller does not set one
// (the planner's default aliases this, so plans and operators agree).
const DefaultJoinPartitions = 32

// maxSpillDepth bounds recursion: a partition that still exceeds the
// budget after this many re-partitionings (e.g. one giant duplicate key,
// which no hash can subdivide) is built fully in memory.
const maxSpillDepth = 4

// PartitionedHashJoin is a Grace-style parallel partitioned hash join:
// both sides hash-partition on their equi-join keys, DOP workers build the
// partition hash tables concurrently (each worker owns disjoint
// partitions, so there is no shared-map locking), and probe streams match
// against their partition's table through a Gather exchange. When the
// in-memory build rows exceed MemoryBudget, whole partitions spill both
// sides to temp files from Spill and are re-joined per partition after the
// in-memory probe finishes — converting the dominant genomics query shape
// (reads ⋈ alignments) from serial and memory-bound to parallel and
// out-of-core.
type PartitionedHashJoin struct {
	LeftKeys  []expr.Expr
	RightKeys []expr.Expr
	// Left and Right are the single-stream inputs. When the planner has
	// partitioned chains (parallel scans) it sets LeftParts/RightParts
	// instead and Left/Right may be nil.
	Left, Right           Operator
	LeftParts, RightParts []Operator
	LeftWidth             int // as HashJoin.LeftWidth
	// BuildLeft selects the left side as the build (hashed) side; the
	// planner picks the smaller estimated input. Output rows are always
	// the left row's values followed by the right row's.
	BuildLeft bool
	// Partitions is the hash fan-out P (default 32).
	Partitions int
	// MemoryBudget caps the bytes of build rows held in memory; 0 means
	// unlimited. Exceeding it spills partitions through Spill.
	MemoryBudget int64
	// Spill creates temp files for spilled partitions. Required only when
	// MemoryBudget can be exceeded.
	Spill SpillStore
	// Level is the recursion depth (seeds the partition hash so re-spilled
	// rows redistribute); zero for planner-built joins.
	Level int
	// Bloom builds a blocked Bloom filter over the build-side keys during
	// partitioning and drops probe rows with no possible match before they
	// are routed — and in particular before they are spilled. The planner
	// disables it when statistics say nearly every probe row matches.
	Bloom bool
	// BuildRowsEstimate sizes the Bloom filter (the planner's post-filter
	// build-side cardinality estimate; 0 uses a default size).
	BuildRowsEstimate int64
	// PrePartition marks the first N partitions as spilled before the
	// build side is drained: when statistics already say the build side
	// exceeds MemoryBudget, routing those rows straight to disk avoids
	// buffering them and evicting mid-build. Requires Spill.
	PrePartition int

	ctx        *Context
	stats      *JoinStats
	prof       *obs.OpProfile
	bloom      *BlockedBloom
	tables     []map[string][]sqltypes.Row
	spilled    []bool
	buildSpill []SpillFile
	probeSpill []SpillFile
	gather     *Gather
	gatherDone bool
	sub        *PartitionedHashJoin
	subBuild   SpillFile
	subProbe   SpillFile
	subIdx     int
	opened     bool
}

// PruneColumns implements ColumnPruner.
func (j *PartitionedHashJoin) PruneColumns(needed []bool) {
	left, right := j.LeftParts, j.RightParts
	if len(left) == 0 {
		left = []Operator{j.Left}
	}
	if len(right) == 0 {
		right = []Operator{j.Right}
	}
	pruneJoinInputs(needed, j.LeftWidth, j.LeftKeys, j.RightKeys, left, right)
}

// buildInputs returns the build-side chains and key expressions.
func (j *PartitionedHashJoin) buildInputs() ([]Operator, []expr.Expr) {
	if j.BuildLeft {
		if len(j.LeftParts) > 0 {
			return j.LeftParts, j.LeftKeys
		}
		return []Operator{j.Left}, j.LeftKeys
	}
	if len(j.RightParts) > 0 {
		return j.RightParts, j.RightKeys
	}
	return []Operator{j.Right}, j.RightKeys
}

// probeInputs returns the probe-side chains and key expressions.
func (j *PartitionedHashJoin) probeInputs() ([]Operator, []expr.Expr) {
	if j.BuildLeft {
		if len(j.RightParts) > 0 {
			return j.RightParts, j.RightKeys
		}
		return []Operator{j.Right}, j.RightKeys
	}
	if len(j.LeftParts) > 0 {
		return j.LeftParts, j.LeftKeys
	}
	return []Operator{j.Left}, j.LeftKeys
}

// appendJoinKey evaluates the join-key expressions over row (into the
// reusable keyVals scratch) and appends the comparable key encoding to
// dst[:0]. null reports a NULL key, which never joins. Build routing,
// probe routing and the serial hash join all share this, so the two sides
// of a join can never disagree on key encoding or NULL semantics.
func appendJoinKey(dst []byte, keys []expr.Expr, keyVals sqltypes.Row, row sqltypes.Row) (enc []byte, null bool, err error) {
	for i, e := range keys {
		v, err := e.Eval(row)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() {
			return dst, true, nil
		}
		keyVals[i] = v
	}
	enc, err = appendGroupKey(dst[:0], keyVals)
	return enc, false, err
}

// bloomKeyHash hashes a key encoding for the Bloom filter. It must be
// independent of partitionHash (the filter's bit choices must not
// correlate with partition routing), so it salts the FNV offset basis
// with a constant outside the recursion-level range.
func bloomKeyHash(key []byte) uint64 {
	h := uint64(14695981039346656037) ^ 0xB10F_B10F_B10F_B10F
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// partitionHash distributes a key encoding onto partitions; level seeds
// the hash so recursive re-partitioning shuffles the rows that collided at
// the previous level (FNV-1a with a level-salted offset basis).
func partitionHash(key []byte, level int) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(level)+1)*0x9E3779B97F4A7C15
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// rowMemBytes approximates the retained size of a buffered row.
func rowMemBytes(row sqltypes.Row) int64 {
	n := int64(len(row)) * 48 // Value header
	for _, v := range row {
		n += int64(len(v.S)) + int64(len(v.B))
	}
	return n + 24 // slice header
}

// Open partitions the build side (spilling over-budget partitions),
// builds the in-memory partition tables with DOP workers, and starts the
// parallel probe.
func (j *PartitionedHashJoin) Open(ctx *Context) error {
	j.ctx = ctx
	j.stats = &statsFrom(ctx).Join
	j.prof = profFrom(ctx)
	p := j.Partitions
	if p < 1 {
		p = DefaultJoinPartitions
	}
	j.tables = make([]map[string][]sqltypes.Row, p)
	j.spilled = make([]bool, p)
	j.buildSpill = make([]SpillFile, p)
	j.probeSpill = make([]SpillFile, p)
	j.gather = nil
	j.gatherDone = false
	j.sub, j.subBuild, j.subProbe = nil, nil, nil
	j.subIdx = 0
	j.opened = true
	j.bloom = nil
	if j.Bloom {
		est := j.BuildRowsEstimate
		if est <= 0 {
			est = 1 << 16
		}
		j.bloom = NewBlockedBloom(est)
	}
	if j.PrePartition > 0 && j.Spill != nil {
		n := j.PrePartition
		if n > p {
			n = p
		}
		for i := 0; i < n; i++ {
			f, err := j.Spill.Create()
			if err != nil {
				j.releaseSpills()
				return err
			}
			j.buildSpill[i] = f
			j.spilled[i] = true
			j.stats.SpilledPartitions.Add(1)
			j.prof.AddSpill(0, 1, 0)
		}
	}

	partRows, partKeys, err := j.partitionBuildSide(ctx, p)
	if err != nil {
		j.releaseSpills()
		return err
	}
	if err := j.buildTables(ctx, partRows, partKeys); err != nil {
		j.releaseSpills()
		return err
	}
	// Spilled build partitions need their probe rows captured too.
	for i, sp := range j.spilled {
		if !sp {
			continue
		}
		f, err := j.Spill.Create()
		if err != nil {
			j.releaseSpills()
			return err
		}
		j.probeSpill[i] = f
	}
	probeChains, probeKeys := j.probeInputs()
	workers := make([]Operator, len(probeChains))
	for i, ch := range probeChains {
		workers[i] = &phjProbe{j: j, child: ch, keys: probeKeys}
	}
	j.gather = &Gather{Children: workers}
	return j.gather.Open(ctx)
}

// partitionBuildSide drains the build input (through an unordered Gather
// when the planner supplied parallel chains, so the scan itself overlaps
// I/O) and routes each row to its partition, spilling the largest
// partitions whenever the buffered bytes exceed the budget.
func (j *PartitionedHashJoin) partitionBuildSide(ctx *Context, p int) ([][]sqltypes.Row, [][]string, error) {
	chains, keys := j.buildInputs()
	var next func() (sqltypes.Row, bool, error)
	var closeInput func() error
	needClone := true
	if len(chains) == 1 {
		ch := chains[0]
		if err := ch.Open(ctx); err != nil {
			return nil, nil, err
		}
		next, closeInput = ch.Next, ch.Close
	} else {
		g := &Gather{Children: chains}
		if err := g.Open(ctx); err != nil {
			return nil, nil, err
		}
		next, closeInput = g.Next, g.Close
		needClone = false // gather already clones into fresh rows
	}

	partRows := make([][]sqltypes.Row, p)
	partKeys := make([][]string, p)
	partBytes := make([]int64, p)
	var memBytes int64
	keyVals := make(sqltypes.Row, len(keys))
	var keyBuf []byte
	fail := func(err error) ([][]sqltypes.Row, [][]string, error) {
		closeInput()
		return nil, nil, err
	}
	for {
		row, ok, err := next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		var null bool
		keyBuf, null, err = appendJoinKey(keyBuf, keys, keyVals, row)
		if err != nil {
			return fail(err)
		}
		if null {
			continue
		}
		j.stats.BuildRows.Add(1)
		if j.bloom != nil {
			j.bloom.Add(bloomKeyHash(keyBuf))
		}
		pt := int(partitionHash(keyBuf, j.Level) % uint64(p))
		if j.spilled[pt] {
			if err := j.buildSpill[pt].Append(row); err != nil {
				return fail(err)
			}
			j.stats.SpilledBuildRows.Add(1)
			j.prof.AddSpill(0, 0, 1)
			continue
		}
		if needClone {
			row = row.Clone()
		}
		partRows[pt] = append(partRows[pt], row)
		partKeys[pt] = append(partKeys[pt], string(keyBuf))
		sz := rowMemBytes(row) + int64(len(keyBuf))
		partBytes[pt] += sz
		memBytes += sz
		for j.MemoryBudget > 0 && memBytes > j.MemoryBudget {
			victim := -1
			for i := range partBytes {
				if !j.spilled[i] && len(partRows[i]) > 0 &&
					(victim < 0 || partBytes[i] > partBytes[victim]) {
					victim = i
				}
			}
			if victim < 0 {
				break // nothing left to evict
			}
			if j.Spill == nil {
				return fail(fmt.Errorf("exec: join memory budget %d exceeded and no spill store configured", j.MemoryBudget))
			}
			f, err := j.Spill.Create()
			if err != nil {
				return fail(err)
			}
			for _, r := range partRows[victim] {
				if err := f.Append(r); err != nil {
					f.Release()
					return fail(err)
				}
			}
			j.stats.SpilledPartitions.Add(1)
			j.stats.SpilledBuildRows.Add(int64(len(partRows[victim])))
			j.prof.AddSpill(0, 1, int64(len(partRows[victim])))
			j.buildSpill[victim] = f
			j.spilled[victim] = true
			memBytes -= partBytes[victim]
			partBytes[victim] = 0
			partRows[victim] = nil
			partKeys[victim] = nil
		}
	}
	if err := closeInput(); err != nil {
		return nil, nil, err
	}
	return partRows, partKeys, nil
}

// buildTables constructs the in-memory partition hash tables with up to
// DOP workers; worker w owns partitions w, w+DOP, ... so no table is
// shared between goroutines.
func (j *PartitionedHashJoin) buildTables(ctx *Context, partRows [][]sqltypes.Row, partKeys [][]string) error {
	p := len(partRows)
	workers := ctx.DOP
	if workers < 1 {
		workers = 1
	}
	if workers > p {
		workers = p
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < p; i += workers {
				if j.spilled[i] || len(partRows[i]) == 0 {
					continue
				}
				m := make(map[string][]sqltypes.Row, len(partRows[i]))
				for r, row := range partRows[i] {
					k := partKeys[i][r]
					m[k] = append(m[k], row)
				}
				j.tables[i] = m
			}
		}(w)
	}
	wg.Wait()
	return nil
}

// Next returns joined rows: first the streamed in-memory matches from the
// probe gather, then — once every probe worker has finished routing — the
// recursive joins of the spilled partitions, one partition at a time.
func (j *PartitionedHashJoin) Next() (sqltypes.Row, bool, error) {
	for {
		if !j.gatherDone {
			row, ok, err := j.gather.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return row, true, nil
			}
			j.gatherDone = true
			if err := j.gather.Close(); err != nil {
				return nil, false, err
			}
			j.gather = nil
			// The in-memory tables are dead weight from here on: the
			// spilled-partition recursion re-reads both sides from disk,
			// and each recursion level builds its own budget-sized tables.
			// Freeing them keeps resident build memory near one budget
			// instead of one per recursion level.
			j.tables = nil
		}
		if j.sub != nil {
			row, ok, err := j.sub.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return row, true, nil
			}
			if err := j.finishSub(); err != nil {
				return nil, false, err
			}
			continue
		}
		started, err := j.startNextSpilled()
		if err != nil {
			return nil, false, err
		}
		if !started {
			return nil, false, nil
		}
	}
}

// startNextSpilled opens the recursive join over the next non-empty
// spilled partition; returns false when none remain.
func (j *PartitionedHashJoin) startNextSpilled() (bool, error) {
	for j.subIdx < len(j.spilled) {
		i := j.subIdx
		j.subIdx++
		if !j.spilled[i] {
			continue
		}
		bf, pf := j.buildSpill[i], j.probeSpill[i]
		j.buildSpill[i], j.probeSpill[i] = nil, nil
		// Spill volume is accounted when the partition's files retire:
		// every spilled partition passes through here exactly once (error
		// paths release without retiring, and never produce a profile).
		j.prof.AddSpill(bf.Bytes()+pf.Bytes(), 0, 0)
		if bf.Rows() == 0 || pf.Rows() == 0 {
			bf.Release()
			pf.Release()
			continue
		}
		j.stats.SpillRecursions.Add(1)
		buildSrc := spillSource(bf)
		probeSrc := spillSource(pf)
		sub := &PartitionedHashJoin{
			LeftKeys:   j.LeftKeys,
			RightKeys:  j.RightKeys,
			BuildLeft:  j.BuildLeft,
			Partitions: j.Partitions,
			Spill:      j.Spill,
			Level:      j.Level + 1,
		}
		// Past maxSpillDepth the partition cannot be subdivided further
		// (all rows share a key); build it in memory regardless of budget.
		if j.Level+1 < maxSpillDepth {
			sub.MemoryBudget = j.MemoryBudget
		}
		if j.BuildLeft {
			sub.Left, sub.Right = buildSrc, probeSrc
		} else {
			sub.Left, sub.Right = probeSrc, buildSrc
		}
		if err := sub.Open(j.ctx); err != nil {
			bf.Release()
			pf.Release()
			return false, err
		}
		j.sub, j.subBuild, j.subProbe = sub, bf, pf
		return true, nil
	}
	return false, nil
}

// finishSub closes the current recursive join and frees its spill files.
func (j *PartitionedHashJoin) finishSub() error {
	err := j.sub.Close()
	if rerr := j.subBuild.Release(); err == nil {
		err = rerr
	}
	if rerr := j.subProbe.Release(); err == nil {
		err = rerr
	}
	j.sub, j.subBuild, j.subProbe = nil, nil, nil
	return err
}

// spillSource adapts a spill file into a re-openable scan operator.
func spillSource(f SpillFile) *Source {
	return &Source{
		Label: "Spill Scan",
		Factory: func(*Context) (RowIterator, error) {
			return f.Iter()
		},
	}
}

// releaseSpills frees every live spill file (error paths and Close).
func (j *PartitionedHashJoin) releaseSpills() {
	for i := range j.buildSpill {
		if j.buildSpill[i] != nil {
			j.buildSpill[i].Release()
			j.buildSpill[i] = nil
		}
		if j.probeSpill[i] != nil {
			j.probeSpill[i].Release()
			j.probeSpill[i] = nil
		}
	}
}

// Close stops the probe, releases spill files and frees the tables.
func (j *PartitionedHashJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	var err error
	if j.gather != nil {
		err = j.gather.Close()
		j.gather = nil
	}
	if j.sub != nil {
		if serr := j.finishSub(); err == nil {
			err = serr
		}
	}
	j.releaseSpills()
	j.tables = nil
	j.bloom = nil
	return err
}

// phjProbe is one probe worker: it streams its chain, matches rows whose
// partition is in memory (the tables are read-only by now, so lookups are
// lock-free) and routes rows of spilled partitions to the partition's
// probe file (SpillFile.Append is concurrency-safe).
type phjProbe struct {
	j     *PartitionedHashJoin
	child Operator
	keys  []expr.Expr

	pending []sqltypes.Row
	current sqltypes.Row
	keyVals sqltypes.Row
	keyBuf  []byte
	out     sqltypes.Row
}

// Open opens the worker's probe chain.
func (w *phjProbe) Open(ctx *Context) error {
	w.keyVals = make(sqltypes.Row, len(w.keys))
	w.pending, w.current = nil, nil
	return w.child.Open(ctx)
}

// Next produces the worker's next matched row.
func (w *phjProbe) Next() (sqltypes.Row, bool, error) {
	j := w.j
	p := len(j.spilled)
	for {
		if len(w.pending) > 0 {
			build := w.pending[0]
			w.pending = w.pending[1:]
			return w.combine(w.current, build), true, nil
		}
		row, ok, err := w.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		var null bool
		w.keyBuf, null, err = appendJoinKey(w.keyBuf, w.keys, w.keyVals, row)
		if err != nil {
			return nil, false, err
		}
		if null {
			continue
		}
		j.stats.ProbeRows.Add(1)
		// The Bloom check runs before any routing: a dropped row is never
		// partitioned and — the expensive case — never spilled. Dropped
		// rows still attribute to the partition they would have routed to,
		// so monitoring can see which partitions the filter spared.
		if j.bloom != nil {
			j.stats.BloomChecks.Add(1)
			j.prof.AddBloom(1, 0)
			if !j.bloom.MayContain(bloomKeyHash(w.keyBuf)) {
				j.stats.BloomDrops.Add(1)
				j.prof.AddBloom(0, 1)
				pt := int(partitionHash(w.keyBuf, j.Level) % uint64(p))
				j.stats.BloomDropsByPart[pt%DefaultJoinPartitions].Add(1)
				continue
			}
		}
		pt := int(partitionHash(w.keyBuf, j.Level) % uint64(p))
		if j.spilled[pt] {
			if err := j.probeSpill[pt].Append(row); err != nil {
				return nil, false, err
			}
			j.stats.SpilledProbeRows.Add(1)
			j.prof.AddSpill(0, 0, 1)
			continue
		}
		tab := j.tables[pt]
		if tab == nil {
			continue
		}
		matches := tab[string(w.keyBuf)]
		if len(matches) == 0 {
			continue
		}
		w.current = row.Clone()
		w.pending = matches
	}
}

// combine renders probe+build in left-then-right output order.
func (w *phjProbe) combine(probe, build sqltypes.Row) sqltypes.Row {
	left, right := probe, build
	if w.j.BuildLeft {
		left, right = build, probe
	}
	if cap(w.out) < len(left)+len(right) {
		w.out = make(sqltypes.Row, len(left)+len(right))
	}
	w.out = w.out[:len(left)+len(right)]
	copy(w.out, left)
	copy(w.out[len(left):], right)
	return w.out
}

// Close closes the probe chain.
func (w *phjProbe) Close() error { return w.child.Close() }
