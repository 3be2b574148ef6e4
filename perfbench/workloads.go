package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"polaris"
	"polaris/internal/colfile"
	"polaris/internal/server"
	"polaris/internal/sql"
	"polaris/internal/workload"
)

// workloadImpl is one benchmark workload. setup is timed as setup_s; start
// and finish are untimed; run is the timed closed loop, called once per
// phase, and returns when the deadline has passed.
type workloadImpl interface {
	tables() []string
	setup(db *polaris.DB, sz sizes) error
	start(b *bench) error
	run(b *bench, ph *phase, deadline time.Time)
	finish(b *bench) error
}

// ---------------------------------------------------------------------------
// olap_power: the 22 TPC-H queries, seed-shuffled, one power run per
// read-only snapshot transaction.

type olapPower struct {
	ref  [][]byte // serialized result of each query's first execution
	sess localConn
}

func (w *olapPower) tables() []string {
	var out []string
	for _, td := range workload.THTables() {
		out = append(out, td.Name)
	}
	return out
}

func (w *olapPower) setup(db *polaris.DB, sz sizes) error {
	_, err := workload.LoadTPCH(db.Engine(), sz.TPCHSF, sz.LineitemFiles)
	return err
}

// start runs the first, untimed power run. Its results are the reference
// every later execution must match byte for byte; TPC-H answer sets are all
// non-empty, so an empty first result is itself a failure.
func (w *olapPower) start(b *bench) error {
	w.sess = localConn{sql.NewSession(b.db.Engine())}
	for i, q := range workload.THQueries() {
		res, err := w.sess.exec(nil, 0, 0, q)
		if err != nil {
			return fmt.Errorf("Q%d: %w", i+1, err)
		}
		if res.numRows() == 0 {
			b.failCheck("Q%d returned no rows", i+1)
		}
		data, err := colfile.MarshalBatch(res.batch)
		if err != nil {
			return fmt.Errorf("Q%d: serialize: %w", i+1, err)
		}
		w.ref = append(w.ref, data)
	}
	return nil
}

func (w *olapPower) run(b *bench, ph *phase, deadline time.Time) {
	qs := workload.THQueries()
	for time.Now().Before(deadline) {
		order := b.rng.Perm(len(qs))
		results := make([]*colfile.Batch, len(qs))
		txn := ph.begin(nil, "client.txn")
		_, err := txn.exec(w.sess, "BEGIN")
		for _, i := range order {
			if err != nil {
				break
			}
			if err = w.sess.explain(ph.tr, txn, qs[i]); err != nil {
				break
			}
			q := ph.begin(txn, "client.query")
			res, qerr := q.exec(w.sess, qs[i])
			q.done("query", qerr)
			if qerr == nil {
				ph.addRows(int64(res.numRows()), 0)
				results[i] = res.batch
			}
		}
		if err == nil {
			_, err = txn.exec(w.sess, "COMMIT")
		} else {
			_, _ = w.sess.exec(nil, 0, 0, "ROLLBACK")
		}
		txn.done("txn", err)
		// Checked after the transaction so serializing results is not
		// timed as part of it.
		for i, batch := range results {
			if batch == nil {
				continue
			}
			data, serr := colfile.MarshalBatch(batch)
			if serr != nil || !bytes.Equal(data, w.ref[i]) {
				b.failCheck("Q%d result differs from its first execution", i+1)
			}
		}
	}
}

func (w *olapPower) finish(b *bench) error {
	b.checkNoSpill()
	return nil
}

// ---------------------------------------------------------------------------
// DS data maintenance: a generator of multi-table transactions over the
// sales/returns pairs and a model that predicts every table's COUNT(*) and
// SUM(qty) from the statements sent.

var dsPairs = [][2]string{
	{"catalog_sales", "catalog_returns"},
	{"store_sales", "store_returns"},
	{"web_sales", "web_returns"},
}

// tableState is a table's row count and SUM(qty).
type tableState struct{ count, sum int64 }

// liveTable tracks a table's live keys and quantities.
type liveTable struct {
	keys []int64
	idx  map[int64]int
	qty  map[int64]int64
	sum  int64
}

func (t *liveTable) state() tableState { return tableState{int64(len(t.keys)), t.sum} }

func (t *liveTable) add(k, q int64) {
	t.idx[k] = len(t.keys)
	t.keys = append(t.keys, k)
	t.qty[k] = q
	t.sum += q
}

func (t *liveTable) remove(k int64) {
	i := t.idx[k]
	last := t.keys[len(t.keys)-1]
	t.keys[i] = last
	t.idx[last] = i
	t.keys = t.keys[:len(t.keys)-1]
	delete(t.idx, k)
	t.sum -= t.qty[k]
	delete(t.qty, k)
}

func (t *liveTable) set(k, q int64) {
	t.sum += q - t.qty[k]
	t.qty[k] = q
}

type dsModel struct {
	sz     sizes
	rng    *rand.Rand
	nextSK int64
	tables map[string]*liveTable
	// generated counts transactions generated; the pairs take turns so
	// every table sees the same write rate whatever the seed.
	generated int
}

// newDSModel rebuilds the loaded tables' contents from the same
// deterministic generator the load used.
func newDSModel(sz sizes, rng *rand.Rand) *dsModel {
	m := &dsModel{sz: sz, rng: rng, nextSK: sz.DSRows, tables: make(map[string]*liveTable)}
	for _, name := range workload.DSTableNames() {
		t := &liveTable{idx: make(map[int64]int), qty: make(map[int64]int64)}
		batch := workload.DSBatch(name, 0, sz.DSRows)
		for i := 0; i < batch.NumRows(); i++ {
			t.add(batch.Cols[0].Value(i).(int64), batch.Cols[2].Value(i).(int64))
		}
		m.tables[name] = t
	}
	return m
}

func (m *dsModel) states() map[string]tableState {
	out := make(map[string]tableState, len(m.tables))
	for name, t := range m.tables {
		out[name] = t.state()
	}
	return out
}

// txnPlan is one generated transaction: its statements, the rows each must
// affect, and its effect on the model once committed.
type txnPlan struct {
	pair           int // index into dsPairs
	sales, returns string
	stmts          []string
	want           []int64 // expected RowsAffected; -1 = not checked
	rowsIn         int64
	apply          func()
}

func (m *dsModel) valuesRows(n int) (string, []int64, []int64) {
	var sb strings.Builder
	keys := make([]int64, n)
	qtys := make([]int64, n)
	for i := 0; i < n; i++ {
		k, q := m.nextSK, m.rng.Int63n(100)+1
		m.nextSK++
		keys[i], qtys[i] = k, q
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d.%02d, %d)", k, m.rng.Int63n(1000)+1, q,
			m.rng.Int63n(500)+1, m.rng.Int63n(100), 2450000+m.rng.Int63n(1800))
	}
	return sb.String(), keys, qtys
}

// nextTxn generates BEGIN, a multi-row INSERT into a sales table and into
// its returns table, a point UPDATE on the sales table, a point DELETE on
// the returns table, and COMMIT.
func (m *dsModel) nextTxn() txnPlan {
	pi := m.generated % len(dsPairs)
	m.generated++
	pair := dsPairs[pi]
	sales, returns := m.tables[pair[0]], m.tables[pair[1]]
	nS, nR := m.sz.SalesRows, m.sz.ReturnsRows
	sVals, sKeys, sQty := m.valuesRows(nS)
	rVals, rKeys, rQty := m.valuesRows(nR)
	updKey := sales.keys[m.rng.Intn(len(sales.keys))]
	updQty := m.rng.Int63n(100) + 1
	delKey := returns.keys[m.rng.Intn(len(returns.keys))]
	return txnPlan{
		pair: pi, sales: pair[0], returns: pair[1],
		stmts: []string{
			"BEGIN",
			fmt.Sprintf("INSERT INTO %s VALUES %s", pair[0], sVals),
			fmt.Sprintf("INSERT INTO %s VALUES %s", pair[1], rVals),
			fmt.Sprintf("UPDATE %s SET qty = %d WHERE sk = %d", pair[0], updQty, updKey),
			fmt.Sprintf("DELETE FROM %s WHERE sk = %d", pair[1], delKey),
			"COMMIT",
		},
		want:   []int64{-1, int64(nS), int64(nR), 1, 1, -1},
		rowsIn: int64(nS + nR),
		apply: func() {
			for i := range sKeys {
				sales.add(sKeys[i], sQty[i])
			}
			for i := range rKeys {
				returns.add(rKeys[i], rQty[i])
			}
			sales.set(updKey, updQty)
			returns.remove(delKey)
		},
	}
}

// dsWriter runs the generated transactions on one connection. After every
// MaintEvery-th commit on a pair it compacts the pair's two tables, and
// after every VacuumEvery-th commit it runs VACUUM. It records the
// committed-prefix history readers are checked against.
type dsWriter struct {
	m        *dsModel
	c        conn
	txns     int
	pairTxns [3]int // commits per entry of dsPairs
	// hist[k] is every table's state after k committed transactions;
	// sent[k-1]/done[k-1] bracket the k-th COMMIT request.
	hist       []map[string]tableState
	sent, done []time.Time
}

func newDSWriter(m *dsModel, c conn) *dsWriter {
	return &dsWriter{m: m, c: c, hist: []map[string]tableState{m.states()}}
}

// step runs one transaction and any maintenance due after it. It returns
// the plan and whether it committed.
func (w *dsWriter) step(b *bench, ph *phase) (txnPlan, bool) {
	p := w.m.nextTxn()
	o := ph.begin(nil, "client.txn")
	var commitSent time.Time
	var err error
	for i, s := range p.stmts {
		if i == len(p.stmts)-1 {
			commitSent = time.Now()
		}
		var r reply
		r, err = o.exec(w.c, s)
		if err == nil && p.want[i] >= 0 && r.affected != p.want[i] {
			b.failCheck("%q affected %d rows, want %d", truncate(s, 60), r.affected, p.want[i])
			err = fmt.Errorf("statement %d affected %d rows, want %d", i, r.affected, p.want[i])
		}
		if err != nil {
			if i < len(p.stmts)-1 {
				_, _ = w.c.exec(nil, 0, 0, "ROLLBACK")
			}
			break
		}
	}
	o.done("txn", err)
	if err != nil {
		return p, false
	}
	p.apply()
	w.txns++
	w.hist = append(w.hist, w.m.states())
	w.sent = append(w.sent, commitSent)
	w.done = append(w.done, time.Now())
	ph.addRows(0, p.rowsIn)

	w.pairTxns[p.pair]++
	if every := w.m.sz.MaintEvery; every > 0 && w.pairTxns[p.pair]%every == 0 {
		o := ph.begin(nil, "client.maint")
		_, err := o.exec(w.c, "COMPACT TABLE "+p.sales)
		if err == nil {
			_, err = o.exec(w.c, "COMPACT TABLE "+p.returns)
		}
		o.done("maint", err)
	}
	if every := w.m.sz.VacuumEvery; every > 0 && w.txns%every == 0 {
		o := ph.begin(nil, "client.maint")
		_, err := o.exec(w.c, "VACUUM")
		o.done("maint", err)
		if err == nil && w.txns == w.m.sz.SpaceAfterTxns {
			w.space(b)
		}
	}
	return p, true
}

// space records the footprint per live row after a fixed number of
// transactions, so the figure does not move with throughput.
func (w *dsWriter) space(b *bench) {
	var rows int64
	for _, t := range w.m.tables {
		rows += int64(len(t.keys))
	}
	b.space = space{Bytes: storeBytes(b.db), Rows: rows,
		At: fmt.Sprintf("VACUUM after transaction %d", w.txns)}
}

// probe reads a table's COUNT(*) and SUM(qty) as one read operation.
func probe(ph *phase, c conn, table string) (tableState, error) {
	o := ph.begin(nil, "client.query")
	r, err := o.exec(c, "SELECT COUNT(*) AS n, SUM(qty) AS q FROM "+table)
	var v []int64
	if err == nil {
		v, err = r.ints()
		if err == nil && len(v) != 2 {
			err = fmt.Errorf("probe returned %d columns", len(v))
		}
	}
	o.done("query", err)
	if err != nil {
		return tableState{}, err
	}
	ph.addRows(1, 0)
	return tableState{v[0], v[1]}, nil
}

// checkFinal compares every table's COUNT(*) and SUM(qty) with the model.
func checkFinal(b *bench, m *dsModel) {
	for _, name := range workload.DSTableNames() {
		got, err := b.countSum(name)
		if err != nil {
			b.failCheck("final probe %s: %v", name, err)
			continue
		}
		if want := m.tables[name].state(); got != want {
			b.failCheck("%s: COUNT(*), SUM(qty) = %d, %d; the statements sent predict %d, %d",
				name, got.count, got.sum, want.count, want.sum)
		}
	}
}

// ---------------------------------------------------------------------------
// txn_dml: one in-process session runs the transactions back to back and
// reads each sales table back after its commit.

type txnDML struct {
	w *dsWriter
	c localConn
}

func (w *txnDML) tables() []string { return workload.DSTableNames() }
func (w *txnDML) setup(db *polaris.DB, sz sizes) error {
	return workload.LoadDS(db.Engine(), sz.DSRows)
}

func (w *txnDML) start(b *bench) error {
	w.c = localConn{sql.NewSession(b.db.Engine())}
	w.w = newDSWriter(newDSModel(b.sz, b.rng), w.c)
	return nil
}

func (w *txnDML) run(b *bench, ph *phase, deadline time.Time) {
	for time.Now().Before(deadline) {
		p, ok := w.w.step(b, ph)
		if !ok {
			continue
		}
		if err := w.c.explain(ph.tr, nil, "SELECT COUNT(*) AS n, SUM(qty) AS q FROM "+p.sales); err != nil {
			b.failCheck("explain: %v", err)
		}
		got, err := probe(ph, w.c, p.sales)
		if err == nil {
			if want := w.w.m.tables[p.sales].state(); got != want {
				b.failCheck("%s after commit: %+v, want %+v", p.sales, got, want)
			}
		}
	}
}

func (w *txnDML) finish(b *bench) error {
	checkFinal(b, w.w.m)
	b.checkNoSpill()
	return nil
}

// ---------------------------------------------------------------------------
// htap_http: a reporting session and a writer session on one polaris
// server over loopback HTTP, exactly two connections.

type htapHTTP struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	client  *http.Client
	base    string
	writer  *dsWriter
	reader  httpConn
	queries []string
	step    int // position in the reporting stream
	obs     []observation
}

// observation is one reporting-session probe of a table.
type observation struct {
	table  string
	got    tableState
	t0, t1 time.Time
}

func (w *htapHTTP) tables() []string { return workload.DSTableNames() }
func (w *htapHTTP) setup(db *polaris.DB, sz sizes) error {
	return workload.LoadDS(db.Engine(), sz.DSRows)
}

func (w *htapHTTP) start(b *bench) error {
	w.srv = server.New(b.db.Engine(), server.Config{SessionBudget: b.sz.SessionBudget})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: tracedHandler{h: w.srv, tr: b.cur.Load}}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	var ids [2]string
	for i := range ids {
		if ids[i], err = w.newSession(); err != nil {
			return err
		}
	}
	w.reader = httpConn{client: w.client, base: w.base, session: ids[0]}
	w.writer = newDSWriter(newDSModel(b.sz, b.rng), httpConn{client: w.client, base: w.base, session: ids[1]})
	w.queries = workload.DSQueries(b.sz.ReportQueries)
	return nil
}

func (w *htapHTTP) newSession() (string, error) {
	resp, err := w.client.Post(w.base+"/v1/session", "application/json", strings.NewReader("{}"))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Session string `json:"session"`
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("create session: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.Session, nil
}

func (w *htapHTTP) run(b *bench, ph *phase, deadline time.Time) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			w.writer.step(b, ph)
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			w.report(ph)
		}
	}()
	wg.Wait()
}

// report runs the next step of the reporting stream: a probe of one of
// the written tables, then each reporting query in turn.
func (w *htapHTTP) report(ph *phase) {
	pass, step := w.step/(len(w.queries)+1), w.step%(len(w.queries)+1)
	w.step++
	if step == 0 {
		table := dsPairs[pass%len(dsPairs)][pass/len(dsPairs)%2]
		t0 := time.Now()
		got, err := probe(ph, w.reader, table)
		if err == nil {
			w.obs = append(w.obs, observation{table: table, got: got, t0: t0, t1: time.Now()})
		}
		return
	}
	o := ph.begin(nil, "client.query")
	r, err := o.exec(w.reader, w.queries[step-1])
	o.done("query", err)
	if err == nil {
		ph.addRows(int64(r.numRows()), 0)
	}
}

// finish drains the server, then checks that every probe saw a committed
// prefix of the writer's transactions, that the final tables match the
// model, and that no spill files are left.
func (w *htapHTTP) finish(b *bench) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.srv.Drain(ctx); err != nil {
		return err
	}
	if err := w.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-w.served; err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	w.client.CloseIdleConnections()
	wr := w.writer
	for _, o := range w.obs {
		lo, hi := 0, 0
		for k := range wr.done {
			if wr.done[k].Before(o.t0) {
				lo = k + 1
			}
			if wr.sent[k].Before(o.t1) {
				hi = k + 1
			}
		}
		ok := false
		for k := lo; k <= hi && !ok; k++ {
			ok = wr.hist[k][o.table] == o.got
		}
		if !ok {
			b.failCheck("reporting session saw %s = %+v, not the state after any of commits %d..%d",
				o.table, o.got, lo, hi)
		}
	}
	if len(w.obs) == 0 {
		b.failCheck("reporting session made no probes")
	}
	checkFinal(b, wr.m)
	b.checkNoSpill()
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
