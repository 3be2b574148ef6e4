// Command perfbench is the end-to-end benchmark of the Polaris
// reproduction. It runs one workload against the public surfaces —
// polaris.DB and sql.Session in-process, internal/server over loopback
// HTTP — measures it for a fixed time, checks the outputs, and prints one
// JSON result line:
//
//	go run . --workload olap_power --seed 1 --seconds 15 --trace 0
//
// Workloads (closed loops, at most two client goroutines):
//
//	olap_power  the 22 TPC-H queries in a seed-shuffled order, each power
//	            run inside one read-only snapshot transaction
//	txn_dml     multi-table INSERT/UPDATE/DELETE transactions over the DS
//	            sales/returns tables, with COMPACT TABLE and VACUUM
//	htap_http   DS reporting queries next to the txn_dml writer, both as
//	            named sessions of one server over two HTTP connections
//
// With --trace 0 the result holds the end-to-end metrics (wall clock). With
// --trace 1 the workload runs once untraced and once traced; the result
// holds the per-layer metrics of the traced pass, and the span dump,
// self-time table, counter deltas and tracing overhead are written to
// --out. The exit code is 1 when a correctness check fails, 2 on a usage or
// set-up error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polaris"
	"polaris/internal/sql"
)

// sizes are the workload dimensions. They are fixed per workload so runs
// with different seeds differ only in the statement stream.
type sizes struct {
	TPCHSF        float64 `json:"tpch_sf"`
	LineitemFiles int     `json:"lineitem_files"`
	DSRows        int64   `json:"ds_rows_per_table"`
	SalesRows     int     `json:"sales_rows_per_txn"`
	ReturnsRows   int     `json:"returns_rows_per_txn"`
	MaintEvery    int     `json:"compact_every_pair_txns"`
	VacuumEvery   int     `json:"vacuum_every_txns"`
	// SpaceAfterTxns is the transaction, a multiple of VacuumEvery, after
	// whose VACUUM store_bytes_per_row is measured.
	SpaceAfterTxns int   `json:"space_after_txns"`
	ReportQueries  int   `json:"report_queries"`
	SessionBudget  int64 `json:"session_join_budget_bytes"`
	SetupReps      int   `json:"setup_reps"`
}

func defaultSizes() sizes {
	return sizes{
		TPCHSF: 4, LineitemFiles: 8,
		DSRows: 8000, SalesRows: 20, ReturnsRows: 5,
		MaintEvery: 4, VacuumEvery: 20, SpaceAfterTxns: 60,
		ReportQueries: 8, SessionBudget: 64 << 10,
		SetupReps: 3,
	}
}

func newWorkload(name string) (workloadImpl, bool) {
	switch name {
	case "olap_power":
		return &olapPower{}, true
	case "txn_dml":
		return &txnDML{}, true
	case "htap_http":
		return &htapHTTP{}, true
	}
	return nil, false
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "olap_power, txn_dml or htap_http")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the statement stream")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of a timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the trace dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := runBench(o, defaultSizes(), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one workload run shares with the harness.
type bench struct {
	db  *polaris.DB
	sz  sizes
	rng *rand.Rand
	// cur is the tracer of the phase in progress (nil when untraced); the
	// server-side handler wrapper reads it.
	cur atomic.Pointer[tracer]

	// space is set by a workload that measures the footprint inside the
	// run; otherwise it is measured after the closing VACUUM.
	space space

	mu     sync.Mutex
	checks []string
}

// failCheck records a failed correctness check.
func (b *bench) failCheck(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.checks = append(b.checks, fmt.Sprintf(format, args...))
}

// checkNoSpill fails the run if a spill file outlived its statement.
func (b *bench) checkNoSpill() {
	if left := b.db.Engine().Store.List("spill/"); len(left) > 0 {
		b.failCheck("%d spill files left after the run, e.g. %s", len(left), left[0])
	}
}

// local runs one statement on a fresh in-process session, outside any
// phase.
func (b *bench) local(stmt string) (reply, error) {
	return localConn{sql.NewSession(b.db.Engine())}.exec(nil, 0, 0, stmt)
}

// countSum reads a table's COUNT(*) and SUM(qty).
func (b *bench) countSum(table string) (tableState, error) {
	r, err := b.local("SELECT COUNT(*) AS n, SUM(qty) AS q FROM " + table)
	if err != nil {
		return tableState{}, err
	}
	v, err := r.ints()
	if err != nil {
		return tableState{}, err
	}
	return tableState{v[0], v[1]}, nil
}

func (b *bench) count(table string) (int64, error) {
	r, err := b.local("SELECT COUNT(*) AS n FROM " + table)
	if err != nil {
		return 0, err
	}
	v, err := r.ints()
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// envRecord describes the run next to its result.
type envRecord struct {
	Workload        string           `json:"workload"`
	Seed            int64            `json:"seed"`
	Seconds         float64          `json:"seconds"`
	Trace           bool             `json:"trace"`
	GOMAXPROCS      int              `json:"gomaxprocs"`
	NumCPU          int              `json:"nproc"`
	GoVersion       string           `json:"go_version"`
	Sizes           sizes            `json:"sizes"`
	TableRows       map[string]int64 `json:"table_rows"`
	StoreBytesSetup int64            `json:"store_bytes_after_setup"`
	SessionBudget   int64            `json:"session_join_budget_bytes"`
	SetupSamples    []float64        `json:"setup_samples_s"`
	QueryLatency    latency          `json:"query_latency"`
	TxnLatency      latency          `json:"txn_latency"`
	Failures        []string         `json:"failures,omitempty"`
	FailedChecks    []string         `json:"failed_checks,omitempty"`
	Space           space            `json:"space"`
}

func runBench(o options, sz sizes, stdout io.Writer) (*result, error) {
	if _, ok := newWorkload(o.workload); !ok {
		return nil, fmt.Errorf("unknown workload %q (want olap_power, txn_dml or htap_http)", o.workload)
	}
	plain, err := runPass(o, sz, nil)
	if err != nil {
		return nil, err
	}
	env := envRecord{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Sizes: sz, TableRows: plain.tableRows, StoreBytesSetup: plain.storeBytesSetup,
		SetupSamples: plain.setupSamples,
		QueryLatency: summarize(plain.ph.queryMs), TxnLatency: summarize(plain.ph.txnMs),
		Failures: plain.ph.failures, FailedChecks: plain.checks,
		Space: plain.space,
	}
	if o.workload == "htap_http" {
		env.SessionBudget = sz.SessionBudget
	}
	res := &result{Correct: len(plain.checks) == 0, Attempted: plain.ph.attempted, Failed: plain.ph.failed}
	if o.trace {
		// The traced pass starts from a fresh set-up with the same seed, so
		// it replays the untraced pass's inputs and the two compare directly.
		tr := newTracer()
		traced, err := runPass(o, sz, tr)
		if err != nil {
			return nil, err
		}
		env.Failures = append(env.Failures, traced.ph.failures...)
		env.FailedChecks = append(env.FailedChecks, traced.checks...)
		res.Correct = res.Correct && len(traced.checks) == 0
		res.Attempted, res.Failed = traced.ph.attempted, traced.ph.failed
		res.Metrics = layerMetrics(traced.ph, traced.delta, tr.snapshot())
		if err := writeTraceReport(o, env, plain.ph, traced.ph, traced.delta, tr, stdout); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEnd(plain.ph, env)
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# %s\n", envLine)
	if res.Attempted == 0 {
		return nil, errors.New("no operation ran")
	}
	return res, nil
}

// passResult is one set-up plus one timed phase of a workload.
type passResult struct {
	setupSamples    []float64
	tableRows       map[string]int64
	storeBytesSetup int64
	ph              *phase
	delta           counters
	checks          []string
	space           space
}

// space is the store footprint per live row at a fixed point of the run.
type space struct {
	Bytes int64  `json:"bytes"`
	Rows  int64  `json:"rows"`
	At    string `json:"measured_at"`
}

// runPass sets the workload up (SetupReps times when untraced, keeping the
// last database), runs one timed phase, and checks the outcome.
func runPass(o options, sz sizes, tr *tracer) (*passResult, error) {
	w, _ := newWorkload(o.workload)
	b := &bench{sz: sz, rng: rand.New(rand.NewSource(o.seed))}
	pass := &passResult{tableRows: make(map[string]int64)}
	reps := max(sz.SetupReps, 1)
	if tr != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if b.db != nil {
			b.db.Close()
			b.db = nil
		}
		runtime.GC()
		t0 := time.Now()
		db := polaris.Open(polaris.DefaultConfig())
		if err := w.setup(db, sz); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		pass.setupSamples = append(pass.setupSamples, time.Since(t0).Seconds())
		b.db = db
	}
	defer b.db.Close()
	for _, t := range w.tables() {
		n, err := b.count(t)
		if err != nil {
			return nil, fmt.Errorf("count %s: %w", t, err)
		}
		pass.tableRows[t] = n
	}
	pass.storeBytesSetup = storeBytes(b.db)
	if err := w.start(b); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	pass.ph, pass.delta = runPhase(b, w, tr, time.Duration(o.seconds*float64(time.Second)))
	if err := w.finish(b); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	pass.space = b.space
	if pass.space.At == "" {
		// No fixed measuring point inside the run: the closing VACUUM.
		if _, err := b.local("VACUUM"); err != nil {
			return nil, fmt.Errorf("closing VACUUM: %w", err)
		}
		pass.space = space{Bytes: storeBytes(b.db), At: "closing VACUUM"}
		for _, t := range w.tables() {
			n, err := b.count(t)
			if err != nil {
				return nil, fmt.Errorf("count %s: %w", t, err)
			}
			pass.space.Rows += n
		}
	}
	pass.checks = b.checks
	return pass, nil
}

// storeBytes is the store's footprint without in-flight spill files.
func storeBytes(db *polaris.DB) int64 {
	st := db.Engine().Store
	var spill int64
	for _, bi := range st.ListInfo("spill/") {
		spill += bi.Size
	}
	return st.TotalSize() - spill
}

// runPhase runs one timed pass of the workload with tracing on or off and
// returns its record and the counter deltas over it.
func runPhase(b *bench, w workloadImpl, tr *tracer, dur time.Duration) (*phase, counters) {
	runtime.GC()
	debug.FreeOSMemory()
	ph := &phase{tr: tr}
	b.cur.Store(tr)
	defer b.cur.Store(nil)
	rss := startRSS(5 * time.Millisecond)
	before := snapshotCounters(b.db)
	t0 := time.Now()
	w.run(b, ph, t0.Add(dur))
	ph.elapsed = time.Since(t0)
	after := snapshotCounters(b.db)
	ph.peakRSS = rss.peak()
	return ph, after.delta(before)
}

func endToEnd(ph *phase, env envRecord) map[string]metric {
	q, t := summarize(ph.queryMs), summarize(ph.txnMs)
	secs := ph.elapsed.Seconds()
	m := map[string]metric{
		"setup_s":             {sortedMedian(env.SetupSamples), "s"},
		"query_p50_ms":        {q.P50, "ms"},
		"query_tail_ms":       {q.Tail, "ms"},
		"queries_per_s":       {float64(q.N) / secs, "1/s"},
		"txn_p50_ms":          {t.P50, "ms"},
		"txn_tail_ms":         {t.Tail, "ms"},
		"txns_per_s":          {float64(t.N) / secs, "1/s"},
		"peak_rss_mb":         {float64(ph.peakRSS) / (1 << 20), "MB"},
		"store_bytes_per_row": {0, "bytes/row"},
	}
	if env.Space.Rows > 0 {
		m["store_bytes_per_row"] = metric{float64(env.Space.Bytes) / float64(env.Space.Rows), "bytes/row"}
	}
	return m
}

func sortedMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// layerMetrics derives the per-layer metrics of a traced phase.
func layerMetrics(ph *phase, d counters, spans []span) map[string]metric {
	v := d
	ops := float64(max(ph.attempted, 1))
	st := selfTimes(spans)
	mean := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.meanMs()
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cacheHits := v["compute.mem_hits"] + v["compute.ssd_hits"]
	m := map[string]metric{
		"server.handler_ms":       {mean("server.ServeHTTP"), "ms"},
		"server.transport_ms":     {transportMs(spans), "ms"},
		"compute.queued":          {v["compute.queued"], "count"},
		"compute.queue_wait_ms":   {v["compute.queue_wait_ns"] / 1e6, "ms"},
		"compute.cache_hit_ratio": {ratio(cacheHits, cacheHits+v["compute.misses"]), "ratio"},
		"compute.sim_ms_per_op":   {ms(int64(ph.sim)) / ops, "sim_ms/op"},
		"sql.parse_ms":            {mean("sql.parse"), "ms"},
		"sql.plan_ms":             {mean("sql.plan"), "ms"},
		"sql.select_ms":           {mean("sql.exec.select"), "ms"},
		"sql.insert_ms":           {mean("sql.exec.insert"), "ms"},
		"sql.update_ms":           {mean("sql.exec.update"), "ms"},
		"sql.delete_ms":           {mean("sql.exec.delete"), "ms"},
		"sql.commit_ms":           {mean("sql.exec.commit"), "ms"},
		"sql.maint_ms":            {mean("sql.exec.maint"), "ms"},
		"catalog.commits":         {v["catalog.committed"], "count"},
		"catalog.aborts":          {v["catalog.aborted"], "count"},
		"catalog.write_conflicts": {v["catalog.write_conflicts"], "count"},
		"manifest.cache_hit_ratio": {ratio(v["manifest.cache_hits"],
			v["manifest.cache_hits"]+v["manifest.cache_misses"]), "ratio"},
		"sto.published_per_commit":                   {ratio(v["sto.published"], v["catalog.committed"]), "ratio"},
		"sto.checkpoints":                            {v["sto.checkpoints"], "count"},
		"sto.errors":                                 {v["sto.errors"], "count"},
		"objectstore.puts_per_op":                    {v["objectstore.puts"] / ops, "count/op"},
		"objectstore.gets_per_op":                    {v["objectstore.gets"] / ops, "count/op"},
		"objectstore.staged_blocks_per_op":           {v["objectstore.staged_blocks"] / ops, "count/op"},
		"objectstore.bytes_written_per_op":           {v["objectstore.bytes_written"] / ops, "bytes/op"},
		"objectstore.bytes_read_per_op":              {v["objectstore.bytes_read"] / ops, "bytes/op"},
		"objectstore.bytes_written_per_row_inserted": {ratio(v["objectstore.bytes_written"], float64(ph.rowsIn)), "bytes/row"},
		"exec.rows_scanned_per_row_out":              {ratio(v["exec.rows_scanned"], float64(ph.rowsOut)), "ratio"},
		"exec.files_read_per_op":                     {v["exec.files_read"] / ops, "count/op"},
		"exec.bytes_read_per_op":                     {v["exec.bytes_read"] / ops, "bytes/op"},
		"exec.pushed_filters":                        {v["exec.pushed_filters"], "count"},
		"exec.runtime_filter_rows":                   {v["exec.runtime_filter_rows"], "count"},
		"exec.topn_pushdowns":                        {v["exec.topn_pushdowns"], "count"},
		"exec.merge_free_aggs":                       {v["exec.merge_free_aggs"], "count"},
		"exec.join_spills":                           {v["exec.join_spills"], "count"},
		"exec.join_spill_bytes":                      {v["exec.join_spill_bytes"], "bytes"},
		"exec.join_spill_partitions":                 {v["exec.join_spill_partitions"], "count"},
		"dcp.dag_tasks":                              {v["dcp.dag_tasks"], "count"},
		"dcp.dag_retries":                            {v["dcp.dag_retries"], "count"},
		"proc.alloc_mb_per_op":                       {v["proc.alloc_bytes"] / (1 << 20) / ops, "MB/op"},
		"proc.gc_cycles_per_op":                      {v["proc.gc_cycles"] / ops, "count/op"},
		"proc.cpu_s_per_op":                          {v["proc.cpu_s"] / ops, "s/op"},
	}
	return m
}

// writeTraceReport prints the self-time table, the counter deltas and the
// tracing overhead, and writes them with the span dump to o.out.
func writeTraceReport(o options, env envRecord, plain, traced *phase, d counters, tr *tracer, stdout io.Writer) error {
	spans := tr.snapshot()
	st := selfTimes(spans)
	fmt.Fprintf(stdout, "# traced pass of %s: %d spans over %.3fs\n", o.workload, len(spans), traced.elapsed.Seconds())
	writeSelfTable(stdout, st, traced.elapsed)
	fmt.Fprintln(stdout, "# counter deltas over the traced pass")
	for _, n := range counterNames {
		fmt.Fprintf(stdout, "# %-30s %18.6g\n", n, d[n])
	}
	overhead := tracingOverhead(plain, traced)
	names := make([]string, 0, len(overhead))
	for n := range overhead {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(stdout, "# tracing overhead (traced pass against the untraced pass)")
	for _, n := range names {
		p := overhead[n]
		fmt.Fprintf(stdout, "# %-16s untraced %12.4f traced %12.4f (%+.1f%%)\n", n, p[0], p[1], 100*(p[1]-p[0])/p[0])
	}
	stats := make([]spanStat, 0, len(st))
	for _, s := range st {
		stats = append(stats, *s)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	dump, err := json.Marshal(map[string]any{
		"env": env, "spans": spans, "self_time": stats, "counter_deltas": d, "overhead": overhead,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := os.WriteFile(path, dump, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# span dump: %s\n", path)
	return nil
}

// tracingOverhead pairs each end-to-end latency and rate of the untraced
// pass with the traced pass's.
func tracingOverhead(plain, traced *phase) map[string][2]float64 {
	out := make(map[string][2]float64)
	a, b := summarize(plain.queryMs), summarize(traced.queryMs)
	if a.N > 0 && b.N > 0 {
		out["query_p50_ms"] = [2]float64{a.P50, b.P50}
		out["queries_per_s"] = [2]float64{float64(a.N) / plain.elapsed.Seconds(), float64(b.N) / traced.elapsed.Seconds()}
	}
	a, b = summarize(plain.txnMs), summarize(traced.txnMs)
	if a.N > 0 && b.N > 0 {
		out["txn_p50_ms"] = [2]float64{a.P50, b.P50}
		out["txns_per_s"] = [2]float64{float64(a.N) / plain.elapsed.Seconds(), float64(b.N) / traced.elapsed.Seconds()}
	}
	return out
}
