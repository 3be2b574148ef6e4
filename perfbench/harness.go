package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"polaris"
)

// phase records one timed pass of a workload: client-side latencies,
// operation accounting and the work totals the per-layer metrics divide by.
// Workload goroutines share it, so every update takes mu.
type phase struct {
	tr *tracer

	mu        sync.Mutex
	queryMs   []float64
	txnMs     []float64
	attempted int64
	failed    int64
	failures  []string
	sim       time.Duration
	rowsOut   int64
	rowsIn    int64
	elapsed   time.Duration
	peakRSS   int64
}

// op is one client operation: a read statement, a transaction or a
// maintenance statement.
type op struct {
	ph    *phase
	id    int64
	root  spanRef
	start time.Time
}

// begin starts an operation and its root span. An operation nested in
// parent (a query inside a power-run transaction) shares parent's ID and
// hangs its span under parent's.
func (ph *phase) begin(parent *op, name string) *op {
	if parent != nil {
		return &op{ph: ph, id: parent.id, root: ph.tr.start(parent.id, parent.root.id, name), start: time.Now()}
	}
	id := ph.tr.newOp()
	return &op{ph: ph, id: id, root: ph.tr.start(id, 0, name), start: time.Now()}
}

// exec runs one statement of the operation on c.
func (o *op) exec(c conn, stmt string) (reply, error) {
	r, err := c.exec(o.ph.tr, o.id, o.root.id, stmt)
	o.ph.mu.Lock()
	o.ph.sim += r.sim
	o.ph.mu.Unlock()
	return r, err
}

// done ends the operation. kind is "query", "txn" or "maint"; a failed
// operation is counted but contributes no latency sample.
func (o *op) done(kind string, err error) {
	lat := time.Since(o.start)
	o.ph.tr.end(o.root)
	ph := o.ph
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	if err != nil {
		ph.failed++
		if len(ph.failures) < 5 {
			ph.failures = append(ph.failures, fmt.Sprintf("%s: %v", kind, err))
		}
		return
	}
	switch kind {
	case "query":
		ph.queryMs = append(ph.queryMs, ms(int64(lat)))
	case "txn":
		ph.txnMs = append(ph.txnMs, ms(int64(lat)))
	}
}

func (ph *phase) addRows(out, in int64) {
	ph.mu.Lock()
	ph.rowsOut += out
	ph.rowsIn += in
	ph.mu.Unlock()
}

// latency summarizes a latency sample: the median and the highest
// percentile with at least ten samples beyond it.
type latency struct {
	N      int
	P50    float64
	Tail   float64
	TailPc float64 // percentile the tail value sits at
	Beyond int     // samples beyond the tail value
}

func summarize(xs []float64) latency {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return latency{}
	}
	l := latency{N: n, P50: median(s)}
	if n > 10 {
		l.Tail = s[n-11]
		l.Beyond = 10
		l.TailPc = 100 * float64(n-10) / float64(n)
	} else {
		l.Tail = s[n-1]
		l.TailPc = 100
	}
	return l
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// counters is a snapshot of every counter the layers export, by name.
type counters map[string]float64

// counterNames fixes the dump order.
var counterNames = []string{
	"catalog.begun", "catalog.committed", "catalog.aborted", "catalog.write_conflicts",
	"manifest.cache_hits", "manifest.cache_misses",
	"compute.mem_hits", "compute.ssd_hits", "compute.misses",
	"compute.queued", "compute.admitted", "compute.queue_wait_ns",
	"sto.published", "sto.checkpoints", "sto.compactions", "sto.errors",
	"objectstore.puts", "objectstore.gets", "objectstore.deletes", "objectstore.lists",
	"objectstore.staged_blocks", "objectstore.bytes_written", "objectstore.bytes_read",
	"exec.rows_scanned", "exec.files_read", "exec.bytes_read",
	"exec.pushed_filters", "exec.runtime_filter_rows", "exec.topn_pushdowns", "exec.merge_free_aggs",
	"exec.join_spills", "exec.join_spill_bytes", "exec.join_spill_partitions",
	"dcp.dag_tasks", "dcp.dag_retries",
	"proc.alloc_bytes", "proc.gc_cycles", "proc.cpu_s",
}

func snapshotCounters(db *polaris.DB) counters {
	eng := db.Engine()
	v := make(counters)
	cs := eng.Catalog.Stats()
	v["catalog.begun"] = float64(cs.Begun)
	v["catalog.committed"] = float64(cs.Committed)
	v["catalog.aborted"] = float64(cs.Aborted)
	v["catalog.write_conflicts"] = float64(cs.WriteConflicts)
	hits, misses := eng.Cache.Stats()
	v["manifest.cache_hits"] = float64(hits)
	v["manifest.cache_misses"] = float64(misses)
	for _, n := range eng.Fabric.Nodes() {
		st := n.Stats()
		v["compute.mem_hits"] += float64(st.MemHits)
		v["compute.ssd_hits"] += float64(st.SSDHits)
		v["compute.misses"] += float64(st.Misses)
	}
	adm := &eng.Work.Admission
	v["compute.queued"] = float64(adm.Queued.Load())
	v["compute.admitted"] = float64(adm.Admitted.Load())
	v["compute.queue_wait_ns"] = float64(adm.QueueWaitNanos.Load())
	orch := db.Orchestrator()
	v["sto.published"] = float64(len(orch.Published()))
	v["sto.checkpoints"] = float64(len(orch.Checkpoints()))
	v["sto.compactions"] = float64(len(orch.Compactions()))
	v["sto.errors"] = float64(len(orch.Errors()))
	m := eng.Store.Metrics()
	v["objectstore.puts"] = float64(m.Puts)
	v["objectstore.gets"] = float64(m.Gets)
	v["objectstore.deletes"] = float64(m.Deletes)
	v["objectstore.lists"] = float64(m.Lists)
	v["objectstore.staged_blocks"] = float64(m.StagedBlocks)
	v["objectstore.bytes_written"] = float64(m.BytesWritten)
	v["objectstore.bytes_read"] = float64(m.BytesRead)
	w := &eng.Work
	v["exec.rows_scanned"] = float64(w.RowsScanned.Load())
	v["exec.files_read"] = float64(w.FilesRead.Load())
	v["exec.bytes_read"] = float64(w.BytesRead.Load())
	v["exec.pushed_filters"] = float64(w.PushedFilters.Load())
	v["exec.runtime_filter_rows"] = float64(w.RuntimeFilterRows.Load())
	v["exec.topn_pushdowns"] = float64(w.TopNPushdowns.Load())
	v["exec.merge_free_aggs"] = float64(w.MergeFreeAggs.Load())
	v["exec.join_spills"] = float64(w.JoinSpills.Load())
	v["exec.join_spill_bytes"] = float64(w.JoinSpillBytes.Load())
	v["exec.join_spill_partitions"] = float64(w.JoinSpillPartitions.Load())
	v["dcp.dag_tasks"] = float64(w.DagTasks.Load())
	v["dcp.dag_retries"] = float64(w.DagRetries.Load())
	rs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rs)
	v["proc.alloc_bytes"] = float64(rs[0].Value.Uint64())
	v["proc.gc_cycles"] = float64(rs[1].Value.Uint64())
	v["proc.cpu_s"] = cpuSeconds()
	return v
}

func (c counters) delta(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssSampler polls the process's resident set size until stopped.
type rssSampler struct {
	stop chan struct{}
	done chan int64
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan int64, 1)}
	go func() {
		peak := rssBytes()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, rssBytes())
				return
			case <-t.C:
				peak = max(peak, rssBytes())
			}
		}
	}()
	return s
}

// peak stops the sampler, waits for it and returns the high-water mark.
func (s *rssSampler) peak() int64 {
	close(s.stop)
	return <-s.done
}

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
