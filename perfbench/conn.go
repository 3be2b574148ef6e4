package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"polaris/internal/colfile"
	"polaris/internal/server"
	"polaris/internal/sql"
)

// reply is the part of a statement's outcome the workloads look at.
type reply struct {
	affected int64
	sim      time.Duration
	batch    *colfile.Batch // in-process results
	rows     [][]any        // HTTP results, numbers as json.Number
}

func (r reply) numRows() int {
	if r.batch != nil {
		return r.batch.NumRows()
	}
	return len(r.rows)
}

// ints returns the first result row as integers (COUNT/SUM probes).
func (r reply) ints() ([]int64, error) {
	var row []any
	switch {
	case r.batch != nil && r.batch.NumRows() > 0:
		row = r.batch.Row(0)
	case len(r.rows) > 0:
		row = r.rows[0]
	default:
		return nil, fmt.Errorf("empty result")
	}
	out := make([]int64, len(row))
	for i, v := range row {
		switch x := v.(type) {
		case int64:
			out[i] = x
		case json.Number:
			n, err := strconv.ParseInt(x.String(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("column %d: %w", i, err)
			}
			out[i] = n
		case nil:
			out[i] = 0
		default:
			return nil, fmt.Errorf("column %d: unexpected %T", i, v)
		}
	}
	return out, nil
}

// conn runs one SQL statement for a client operation. op and parent place
// the statement's spans in the operation's span tree.
type conn interface {
	exec(tr *tracer, op, parent int64, stmt string) (reply, error)
}

// localConn runs statements in-process on a sql.Session, timing the parse
// and the execution separately.
type localConn struct{ s *sql.Session }

func (c localConn) exec(tr *tracer, op, parent int64, stmt string) (reply, error) {
	ps := tr.start(op, parent, "sql.parse")
	st, err := sql.Parse(stmt)
	tr.end(ps)
	if err != nil {
		return reply{}, err
	}
	es := tr.start(op, parent, "sql.exec."+stmtKind(st))
	res, err := c.s.ExecParsed(st)
	tr.end(es)
	if err != nil {
		return reply{}, err
	}
	return reply{affected: res.RowsAffected, sim: res.SimTime, batch: res.Batch}, nil
}

// explain plans a SELECT without running it (the traced run's sql.plan
// span), under parent or as an operation of its own when parent is nil. It
// is never part of a query operation, so query latency excludes it.
func (c localConn) explain(tr *tracer, parent *op, stmt string) error {
	if tr == nil {
		return nil
	}
	st, err := sql.Parse(stmt)
	if err != nil {
		return err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil
	}
	var ps spanRef
	if parent != nil {
		ps = tr.start(parent.id, parent.root.id, "sql.plan")
	} else {
		id := tr.newOp()
		ps = tr.start(id, 0, "sql.plan")
	}
	_, err = c.s.ExecParsed(&sql.ExplainStmt{Query: sel})
	tr.end(ps)
	return err
}

func stmtKind(st sql.Statement) string {
	switch st.(type) {
	case *sql.SelectStmt:
		return "select"
	case *sql.InsertStmt:
		return "insert"
	case *sql.UpdateStmt:
		return "update"
	case *sql.DeleteStmt:
		return "delete"
	case sql.BeginStmt:
		return "begin"
	case sql.CommitStmt:
		return "commit"
	case sql.RollbackStmt:
		return "rollback"
	case sql.MaintenanceStmt:
		return "maint"
	}
	return "other"
}

// spanHeader carries the client's op and span IDs to the traced handler.
const spanHeader = "X-Perfbench-Span"

// httpConn runs statements on a named server session over HTTP.
type httpConn struct {
	client  *http.Client
	base    string
	session string
}

func (c httpConn) exec(tr *tracer, op, parent int64, stmt string) (reply, error) {
	body, err := json.Marshal(map[string]string{"sql": stmt, "session": c.session})
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	rt := tr.start(op, parent, "http.roundtrip")
	if tr != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", op, rt.id))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		tr.end(rt)
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(rt)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var qr server.QueryResponse
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&qr); err != nil {
		return reply{}, fmt.Errorf("decode response: %w", err)
	}
	return reply{affected: qr.RowsAffected, sim: time.Duration(qr.SimTimeNs), rows: qr.Rows}, nil
}

// tracedHandler wraps the server with a server.ServeHTTP span whose parent
// is the client's http.roundtrip span, when a tracer is installed.
type tracedHandler struct {
	h  http.Handler
	tr func() *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr()
	var op, parent int64
	if tr != nil {
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &op, &parent); err != nil {
			tr = nil
		}
	}
	s := tr.start(op, parent, "server.ServeHTTP")
	t.h.ServeHTTP(w, r)
	tr.end(s)
}
