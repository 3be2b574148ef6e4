package sql

import (
	"fmt"
	"testing"
)

// parseCorpus is a set of valid scripts covering every statement kind; the
// fuzz target seeds from it and the prefix sweep truncates it.
var parseCorpus = []string{
	`CREATE TABLE t (k INT, v VARCHAR(8), f FLOAT, b BOOL) WITH (DISTRIBUTION = k, ORDER = v)`,
	`CREATE TABLE IF NOT EXISTS u (k BIGINT)`,
	`SELECT a.k, COUNT(*) AS n, SUM(v) FROM t a JOIN u ON a.k = u.k WHERE a.k BETWEEN 1 AND 9 AND v LIKE 'x%' GROUP BY a.k HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5 OFFSET 2`,
	`SELECT * FROM t AS OF 3 WHERE k IN (1, 2) OR NOT v IS NULL AND k NOT IN (3) AND -k % 2 = 0`,
	`INSERT INTO t (k, v) VALUES (1, 'a'), (2, NULL); UPDATE t SET v = 'b', k = k + 1 WHERE k = 1; DELETE FROM t WHERE k > 1`,
	`BEGIN; INSERT INTO t SELECT k, v FROM u; COMMIT; ROLLBACK TRANSACTION`,
	`CLONE TABLE t TO c AS OF 2; RESTORE TABLE t AS OF 1; DROP TABLE c`,
	`SHOW TABLES; SHOW STATS t; EXPLAIN SELECT k FROM t; COMPACT TABLE t; CHECKPOINT TABLE t; VACUUM`,
}

// parseNoPanic runs ParseScript, turning a panic into an error.
func parseNoPanic(src string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	_, _ = ParseScript(src)
	return nil
}

// TestParseScriptPrefixesNeverPanic parses every prefix of the corpus: a
// script cut anywhere is a parse error or a shorter valid script, never a
// crash.
func TestParseScriptPrefixesNeverPanic(t *testing.T) {
	for _, src := range parseCorpus {
		if _, err := ParseScript(src); err != nil {
			t.Fatalf("corpus script %q: %v", src, err)
		}
		for n := 0; n < len(src); n++ {
			if err := parseNoPanic(src[:n]); err != nil {
				t.Errorf("ParseScript(%q): %v", src[:n], err)
			}
		}
	}
	if _, err := ParseScript("CREATE TABLE A(A VARCHAR)WITH("); err == nil {
		t.Fatal("truncated WITH option list accepted")
	}
}

// FuzzParseScript checks the parser returns an error, never panics, on
// arbitrary input. The seed corpus includes a truncated WITH option list
// that once indexed past the end of the token stream.
func FuzzParseScript(f *testing.F) {
	f.Add("CREATE TABLE A(A VARCHAR)WITH(")
	for _, src := range parseCorpus {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := parseNoPanic(src); err != nil {
			t.Fatalf("ParseScript(%q): %v", src, err)
		}
	})
}
