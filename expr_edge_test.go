package polaris

import (
	"errors"
	"fmt"
	"testing"
)

// TestExpressionEdgeCasesAcrossDOP pins statements at the edge of the
// expression compiler at Parallelism 1 and 4 (morsel and DAG). NOT, AND and OR over a
// non-boolean operand are statement errors, not panics; an untyped NULL
// literal under NOT, AND or OR is a boolean NULL; and a type error over an
// empty table stays silent, because operators compile on their first batch.
func TestExpressionEdgeCasesAcrossDOP(t *testing.T) {
	cases := []struct {
		sql, want string // want is the rendered result, or "error: <message>"
	}{
		// NOT, AND and OR over non-boolean operands
		{`SELECT a FROM t WHERE NOT a`, "error: exec: NOT of int64"},
		{`SELECT a FROM t WHERE a AND a`, "error: exec: cannot compile AND over int64 and int64"},
		{`SELECT NOT a FROM t`, "error: exec: NOT of int64"},
		{`SELECT NOT a, COUNT(*) FROM t GROUP BY NOT a`, "error: exec: NOT of int64"},
		{`DELETE FROM t WHERE NOT a`, "error: exec: NOT of int64"},
		{`DELETE FROM t WHERE s OR a > 1`, "error: exec: cannot compile OR over string and bool"},
		// untyped NULL literals under NOT, AND and OR
		{`SELECT a FROM t WHERE a > 1 OR NULL`, "[a]\n"},
		{`SELECT a FROM t WHERE NOT NULL`, "[a]\n"},
		{`SELECT NOT NULL FROM t`, "[NOT <nil>]\n" + nullRows(7)},
		{`SELECT a > 1 AND NULL FROM t`, "[((a > 1) AND <nil>)]\n" + nullRows(7)},
		{`SELECT a > 1 OR NULL, COUNT(*) FROM t GROUP BY a > 1 OR NULL`, "[group0 COUNT(*)]\n[<nil> 7]\n"},
		{`DELETE FROM t WHERE a > 5 AND NULL`, "affected 0\n"},
		{`SELECT COUNT(*) FROM t`, "[COUNT(*)]\n[7]\n"},
		{`SELECT a FROM t WHERE NULL`, "error: exec: predicate yields int64, not bool"},
		// type errors over an empty table
		{`SELECT a + s FROM e`, "[(a + s)]\n"},
		{`SELECT a FROM e WHERE NOT a`, "[a]\n"},
		{`SELECT NOT a, COUNT(*) FROM e GROUP BY NOT a`, "[group0 COUNT(*)]\n"},
		{`SELECT SUM(NOT a) FROM e`, "[SUM(NOT a)]\n[<nil>]\n"},
		{`DELETE FROM e WHERE NOT a`, "affected 0\n"},
	}
	for _, run := range []struct {
		name        string
		dop         int
		distributed bool
	}{{"dop=1", 1, false}, {"dop=4", 4, false}, {"dop=4/dag", 4, true}} {
		cfg := smallConfig()
		cfg.Parallelism = run.dop
		cfg.DistributedQueries = run.distributed
		db := Open(cfg)
		db.MustExec(`CREATE TABLE t (a INT, s VARCHAR) WITH (DISTRIBUTION = a)`)
		db.MustExec(`INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL), (NULL, 'z'), (6, 'w'), (7, 'v'), (8, 'u')`)
		db.MustExec(`CREATE TABLE e (a INT, s VARCHAR) WITH (DISTRIBUTION = a)`)
		for _, c := range cases {
			var got string
			r, err := db.Exec(c.sql)
			switch {
			case err != nil:
				for errors.Unwrap(err) != nil { // the DAG executor wraps task errors
					err = errors.Unwrap(err)
				}
				got = "error: " + err.Error()
			case r.Len() == 0 && len(r.Columns()) == 0:
				got = fmt.Sprintf("affected %d\n", r.RowsAffected())
			default:
				got = renderRows(r)
			}
			if got != c.want {
				t.Errorf("%s %s:\n got %q\nwant %q", run.name, c.sql, got, c.want)
			}
		}
		db.Close()
	}
}

func nullRows(n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += "[<nil>]\n"
	}
	return out
}
