package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// minGrain is the smallest chunk handed to a worker; chunks below this are
// not worth the scheduling overhead.
const minGrain = 64

// chunksPerWorker is the adaptive-grain target: enough chunks per worker
// that stealing can rebalance skewed per-chunk work, few enough that the
// per-chunk claim (one atomic add) stays negligible.
const chunksPerWorker = 4

// grainFor derives the chunk geometry for a loop over [0,total). When the
// caller pins a grain it is honored (floored at minGrain, like the spawn
// scheduler always did). Otherwise the chunk COUNT is derived first —
// ~chunksPerWorker chunks per worker, capped so no chunk drops below
// minGrain — and the grain follows from it. Deriving grain first (the old
// total/(workers*8) rule) clamped to minGrain exactly when total is just
// above minGrain*workers, which handed one worker two chunks while the rest
// got one: a 2x tail. Dividing total by the chunk count keeps the chunks
// within one index of each other in that regime.
func grainFor(total, workers, grain int) (g, nChunks int) {
	if grain <= 0 {
		n := chunksPerWorker * workers
		if maxChunks := total / minGrain; n > maxChunks {
			n = maxChunks
		}
		if n < 1 {
			n = 1
		}
		grain = (total + n - 1) / n
	}
	if grain < minGrain {
		grain = minGrain
	}
	return grain, (total + grain - 1) / grain
}

// segCursor is one participant's claim cursor over its contiguous segment of
// the index space. next advances by the job's grain; claims past hi fail and
// send the claimant stealing. The struct is padded to a cache line so
// neighboring cursors do not false-share under concurrent claims.
type segCursor struct {
	next atomic.Int64
	hi   int64
	_    [48]byte
}

// job is one parallel loop in flight: the body, the chunk geometry, and the
// completion plumbing. Pool workers receive the job once per wake token and
// participate until no claimable chunk remains anywhere.
type job struct {
	fn    func(slot, lo, hi int)
	grain int
	// slots hands each arriving participant a distinct cursor index, which is
	// also the slot its chunks run in; the submitter takes slot 0 without
	// going through the counter.
	slots atomic.Int64
	// cursors partition [0,total) into one contiguous segment per
	// participant, each starting on a grain boundary.
	cursors []segCursor
	// remaining counts indices not yet executed; the participant that drives
	// it to zero closes done.
	remaining atomic.Int64
	done      chan struct{}
}

// Pool is a persistent work-stealing scheduler: NewPool starts long-lived
// workers once, and every For/ForSlots afterwards only hands out chunk
// claims — no goroutine spawn, no WaitGroup churn on the hot path. The
// submitting goroutine always participates in its own loop, so a loop
// completes even when every pool worker is busy with other submitters
// (concurrent use from many goroutines is supported and race-tested).
//
// Scheduling: the index space is split into one contiguous segment per
// participant; each participant drains its own segment first (sequential
// locality, zero contention), then steals grain-sized chunks from the other
// segments in ring order. Segment cursors are cache-line padded atomics, so
// a steal costs one fetch-add on the victim's line and nothing else.
type Pool struct {
	workers int
	jobs    chan *job
	quit    chan struct{}
	// wg joins the long-lived workers: Add before the launches in NewPool,
	// Wait in Close (TestPoolCloseJoinsWorkers holds it).
	wg     sync.WaitGroup
	closed atomic.Bool

	// Monotone scheduling counters, exported via Stats for the telemetry
	// scheduler section.
	jobCount    atomic.Int64
	inlineCount atomic.Int64
	chunkCount  atomic.Int64
	stealCount  atomic.Int64
	parkCount   atomic.Int64
	// perWorker[0] aggregates chunks executed by submitting goroutines;
	// perWorker[i] for i >= 1 belongs to pool worker i. Padded cells keep
	// the per-chunk increments off each other's cache lines.
	perWorker []paddedInt64
}

// paddedInt64 is an atomic counter padded to a cache line.
type paddedInt64 struct {
	n atomic.Int64
	_ [56]byte
}

// NewPool starts a pool with the given number of long-lived background
// workers (<= 0 means DefaultWorkers). Callers own the pool's lifetime and
// should Close it when done; the package-level Default pool lives for the
// process and is never closed.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool{
		workers: workers,
		// The token buffer absorbs a burst of submissions; when it is full
		// the submitter simply skips waking more workers (sends are
		// non-blocking) and the active participants steal the slack.
		jobs:      make(chan *job, 4*workers),
		quit:      make(chan struct{}),
		perWorker: make([]paddedInt64, workers+1),
	}
	p.wg.Add(workers)
	for w := 1; w <= workers; w++ {
		go p.worker(w)
	}
	return p
}

// Workers returns the number of long-lived background workers.
func (p *Pool) Workers() int { return p.workers }

// Close stops the background workers and joins them. Loops already in
// flight finish normally (their submitters participate and steal any
// segment an exiting worker abandons mid-queue — workers never abandon a
// segment mid-chunk). For must not be called after Close.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.quit)
	p.wg.Wait()
}

// worker is the long-lived loop of pool worker id: wait for a wake token,
// claim a cursor slot, work until no claimable chunk remains, park again.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			slot := int(j.slots.Add(1))
			if slot < len(j.cursors) {
				p.drain(j, slot, id)
			}
			p.parkCount.Add(1)
		}
	}
}

// drain runs participant slot of job j to exhaustion: own segment first,
// then the other segments in ring order (the stealing phase). statIdx is
// the perWorker cell charged for executed chunks (0 for submitters).
func (p *Pool) drain(j *job, slot, statIdx int) {
	var executed, chunks, steals int64
	grain := int64(j.grain)
	nseg := len(j.cursors)
	for k := 0; k < nseg; k++ {
		ci := slot + k
		if ci >= nseg {
			ci -= nseg
		}
		c := &j.cursors[ci]
		for {
			lo := c.next.Add(grain) - grain
			if lo >= c.hi {
				break
			}
			hi := lo + grain
			if hi > c.hi {
				hi = c.hi
			}
			j.fn(slot, int(lo), int(hi))
			executed += hi - lo
			chunks++
			if k > 0 {
				steals++
			}
		}
	}
	if chunks > 0 {
		p.chunkCount.Add(chunks)
		p.perWorker[statIdx].n.Add(chunks)
	}
	if steals > 0 {
		p.stealCount.Add(steals)
	}
	if executed > 0 && j.remaining.Add(-executed) == 0 {
		close(j.done)
	}
}

// For runs fn over [0,total) split into dynamically scheduled chunks of
// roughly grain indices each, using the given number of workers (<= 0 means
// the pool's full parallelism: its background workers plus the submitter).
// fn must be safe for concurrent invocation on disjoint ranges. With
// workers == 1 (or a total at or below one grain) it runs inline as a
// single fn(0, total) call, which keeps single-threaded runs deterministic
// and cheap.
func (p *Pool) For(total, workers, grain int, fn func(lo, hi int)) {
	p.ForSlots(total, workers, grain, func(_, lo, hi int) { fn(lo, hi) })
}

// Slots bounds the slot a ForSlots loop over the given workers hands its
// body: every slot is below Slots(workers).
func (p *Pool) Slots(workers int) int {
	if workers <= 0 {
		return p.workers + 1
	}
	return workers
}

// ForSlots is For whose body also receives the slot of the participant
// running the chunk: the submitter's is 0, and an inline run's too. No two
// participants of one loop share a slot, so state indexed by slot is private
// to whoever runs the chunk and needs no lock, and the loop's join publishes
// every slot's state to the caller when ForSlots returns.
func (p *Pool) ForSlots(total, workers, grain int, fn func(slot, lo, hi int)) {
	if total <= 0 {
		return
	}
	workers = p.Slots(workers)
	g, nChunks := grainFor(total, workers, grain)
	if workers == 1 || total <= g {
		p.inlineCount.Add(1)
		fn(0, 0, total)
		return
	}
	parts := workers
	if parts > nChunks {
		parts = nChunks
	}
	j := &job{fn: fn, grain: g, done: make(chan struct{}), cursors: make([]segCursor, parts)}
	j.remaining.Store(int64(total))
	// Partition the chunks (not the raw indices) across segments so every
	// claim inside a segment is a full grain except possibly the last chunk
	// of the last segment: chunk boundaries stay grain-aligned.
	base, extra := nChunks/parts, nChunks%parts
	lo := 0
	for i := 0; i < parts; i++ {
		cn := base
		if i < extra {
			cn++
		}
		hi := lo + cn*g
		if hi > total {
			hi = total
		}
		j.cursors[i].next.Store(int64(lo))
		j.cursors[i].hi = int64(hi)
		lo = hi
	}
	p.jobCount.Add(1)
	// Wake up to parts-1 workers. Sends are non-blocking: if the token
	// buffer is full (a submission burst), the participants already awake —
	// at minimum the submitter — steal the unclaimed segments, so the loop
	// completes regardless of how many tokens land.
	for i := 1; i < parts; i++ {
		select {
		case p.jobs <- j:
		default:
			i = parts // buffer full; stop waking
		}
	}
	p.drain(j, 0, 0)
	<-j.done
}

// Stats is a point-in-time snapshot of the pool's monotone scheduling
// counters (the raw material of the telemetry scheduler section).
type Stats struct {
	// Workers is the number of long-lived background workers.
	Workers int
	// Jobs counts dispatched parallel loops; InlineRuns counts loops that
	// ran inline instead (workers == 1 or a sub-grain total).
	Jobs       int64
	InlineRuns int64
	// Chunks counts executed chunks; Steals the subset claimed from another
	// participant's segment; Parks the number of times a worker went back
	// to waiting after draining a job.
	Chunks int64
	Steals int64
	Parks  int64
	// ChunksPerWorker breaks Chunks down by executor: index 0 aggregates
	// submitting goroutines, index i >= 1 is pool worker i. The spread of
	// these values is the scheduler's load-imbalance signal.
	ChunksPerWorker []int64
}

// Sub returns the counter deltas s - prev, attributing an interval of work
// (a benchmark cell, one run) on a shared pool: Workers is carried from s,
// and per-worker chunk counts subtract slot-wise. prev must be an earlier
// snapshot of the same pool.
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		Workers:         s.Workers,
		Jobs:            s.Jobs - prev.Jobs,
		InlineRuns:      s.InlineRuns - prev.InlineRuns,
		Chunks:          s.Chunks - prev.Chunks,
		Steals:          s.Steals - prev.Steals,
		Parks:           s.Parks - prev.Parks,
		ChunksPerWorker: make([]int64, len(s.ChunksPerWorker)),
	}
	for i, n := range s.ChunksPerWorker {
		if i < len(prev.ChunksPerWorker) {
			n -= prev.ChunksPerWorker[i]
		}
		d.ChunksPerWorker[i] = n
	}
	return d
}

// ImbalanceRatio condenses ChunksPerWorker into one load-imbalance figure:
// the maximum over the mean of the participants that executed any chunks.
// 1.0 is perfectly level; large values mean stealing failed to spread the
// load. Returns 0 when no chunks were executed at all.
func (s Stats) ImbalanceRatio() float64 {
	var max, sum int64
	active := 0
	for _, n := range s.ChunksPerWorker {
		if n <= 0 {
			continue
		}
		active++
		sum += n
		if n > max {
			max = n
		}
	}
	if active == 0 {
		return 0
	}
	return float64(max) * float64(active) / float64(sum)
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Workers:         p.workers,
		Jobs:            p.jobCount.Load(),
		InlineRuns:      p.inlineCount.Load(),
		Chunks:          p.chunkCount.Load(),
		Steals:          p.stealCount.Load(),
		Parks:           p.parkCount.Load(),
		ChunksPerWorker: make([]int64, len(p.perWorker)),
	}
	for i := range p.perWorker {
		s.ChunksPerWorker[i] = p.perWorker[i].n.Load()
	}
	return s
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the shared package-level pool, starting it on first use
// with DefaultWorkers background workers. It lives for the process.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// OrDefault resolves an injectable pool option: p itself when non-nil, the
// shared Default pool otherwise.
func OrDefault(p *Pool) *Pool {
	if p != nil {
		return p
	}
	return Default()
}

// For runs fn over [0,total) on the shared Default pool. See Pool.For.
func For(total, workers, grain int, fn func(lo, hi int)) {
	Default().For(total, workers, grain, fn)
}
