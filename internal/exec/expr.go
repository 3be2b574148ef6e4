// Package exec implements the vectorized query execution operators the SQL
// Server BE contributes in the paper's architecture (Sections 2.3, 3.3):
// columnar scans over immutable data files with deletion-vector filtering and
// zone-map pruning, plus filter, project, hash join, hash aggregation, sort
// and limit operators working batch-at-a-time over colfile vectors.
//
// Expressions evaluate through compiled kernel programs (Compile → Prog,
// immutable and shared across workers, with per-worker EvalCtx scratch);
// filters pass selection vectors (colfile.Batch.Sel) instead of materialized
// copies. The normative kernel contract — catalog, selection and NULL
// semantics, aliasing rules, and the guarantee of observational equivalence
// with the scalar reference evaluator (Expr.Eval) — is docs/VECTORIZATION.md.
package exec

//polaris:kernelfile the scalar reference evaluator reads lanes at already-translated physical positions (Batch.Row semantics)

import (
	"fmt"
	"strings"

	"polaris/internal/colfile"
)

// Expr is a vectorized expression evaluated over a batch.
type Expr interface {
	// Type reports the result type given the input schema.
	Type(schema colfile.Schema) (colfile.DataType, error)
	// Eval computes the expression for every row of a dense batch. It is
	// the row-at-a-time reference the compiled kernels are tested against;
	// operators evaluate through Compile instead.
	Eval(b *colfile.Batch) (*colfile.Vec, error)
	// String renders the expression for plan display.
	String() string
}

// ColRef references an input column by index.
type ColRef struct {
	Idx  int
	Name string // display only
}

// Type implements Expr.
func (c ColRef) Type(schema colfile.Schema) (colfile.DataType, error) {
	if c.Idx < 0 || c.Idx >= len(schema) {
		return 0, fmt.Errorf("exec: column %d out of range", c.Idx)
	}
	return schema[c.Idx].Type, nil
}

// Eval implements Expr.
func (c ColRef) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	if c.Idx < 0 || c.Idx >= len(b.Cols) {
		return nil, fmt.Errorf("exec: column %d out of range", c.Idx)
	}
	return b.Cols[c.Idx], nil
}

// String implements Expr.
func (c ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal value.
type Const struct {
	Val any // int64, float64, string, bool, or nil
}

// Type implements Expr.
func (c Const) Type(colfile.Schema) (colfile.DataType, error) {
	switch c.Val.(type) {
	case int64, int:
		return colfile.Int64, nil
	case float64:
		return colfile.Float64, nil
	case string:
		return colfile.String, nil
	case bool:
		return colfile.Bool, nil
	case nil:
		return colfile.Int64, nil // typed NULL defaults to int
	default:
		return 0, fmt.Errorf("exec: unsupported literal %T", c.Val)
	}
}

// Eval implements Expr.
func (c Const) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	n := b.NumRows()
	t, err := c.Type(nil)
	if err != nil {
		return nil, err
	}
	v := colfile.NewVec(t)
	for i := 0; i < n; i++ {
		if err := v.AppendValue(normalize(c.Val)); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func normalize(x any) any {
	if i, ok := x.(int); ok {
		return int64(i)
	}
	return x
}

// String implements Expr.
func (c Const) String() string {
	if s, ok := c.Val.(string); ok {
		return "'" + s + "'"
	}
	return fmt.Sprintf("%v", c.Val)
}

// BinKind is a binary operator kind.
type BinKind int

// Binary operators.
const (
	OpAdd BinKind = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binNames = map[BinKind]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// Bin is a binary expression.
type Bin struct {
	Kind BinKind
	L, R Expr
}

// IsComparison reports whether the operator yields a boolean.
func (k BinKind) IsComparison() bool { return k >= OpEq && k <= OpGe }

// IsLogical reports whether the operator combines booleans.
func (k BinKind) IsLogical() bool { return k == OpAnd || k == OpOr }

// Type implements Expr.
func (e Bin) Type(schema colfile.Schema) (colfile.DataType, error) {
	lt, err := e.L.Type(schema)
	if err != nil {
		return 0, err
	}
	rt, err := e.R.Type(schema)
	if err != nil {
		return 0, err
	}
	if e.Kind.IsComparison() || e.Kind.IsLogical() {
		return colfile.Bool, nil
	}
	// arithmetic: float wins over int
	if lt == colfile.Float64 || rt == colfile.Float64 {
		return colfile.Float64, nil
	}
	if lt == colfile.Int64 && rt == colfile.Int64 {
		return colfile.Int64, nil
	}
	if lt == colfile.String && rt == colfile.String && e.Kind == OpAdd {
		return colfile.String, nil // concatenation
	}
	return 0, fmt.Errorf("exec: cannot apply %s to %s and %s", binNames[e.Kind], lt, rt)
}

// Eval implements Expr.
func (e Bin) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	lv, err := e.L.Eval(b)
	if err != nil {
		return nil, err
	}
	rv, err := e.R.Eval(b)
	if err != nil {
		return nil, err
	}
	if e.Kind.IsLogical() {
		lt, rt := logicalOperandType(e.L, lv), logicalOperandType(e.R, rv)
		if lt != colfile.Bool || rt != colfile.Bool {
			return nil, fmt.Errorf("exec: cannot compile %s over %s and %s", binNames[e.Kind], lt, rt)
		}
	}
	n := b.NumRows()
	outType, err := e.Type(b.Schema)
	if err != nil {
		return nil, err
	}
	out := colfile.NewVec(outType)
	for i := 0; i < n; i++ {
		if lv.IsNull(i) || rv.IsNull(i) {
			out.AppendNull() // SQL three-valued logic collapses to NULL
			continue
		}
		switch {
		case e.Kind.IsLogical():
			out.AppendBool(evalLogical(e.Kind, lv.Bools[i], rv.Bools[i]))
		case e.Kind.IsComparison():
			cmp, err := compareAt(lv, rv, i)
			if err != nil {
				return nil, err
			}
			out.AppendBool(cmpToBool(e.Kind, cmp))
		default:
			if err := evalArith(e.Kind, lv, rv, i, out); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// String implements Expr.
func (e Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binNames[e.Kind], e.R)
}

func evalLogical(k BinKind, l, r bool) bool {
	if k == OpAnd {
		return l && r
	}
	return l || r
}

// compareAt compares position i of two vectors, coercing int/float.
func compareAt(l, r *colfile.Vec, i int) (int, error) {
	if l.Type == r.Type {
		switch l.Type {
		case colfile.Int64:
			return cmpOrd(l.Ints[i], r.Ints[i]), nil
		case colfile.Float64:
			return cmpOrd(l.Floats[i], r.Floats[i]), nil
		case colfile.String:
			return strings.Compare(l.Strs[i], r.Strs[i]), nil
		case colfile.Bool:
			return cmpOrd(b2i(l.Bools[i]), b2i(r.Bools[i])), nil
		}
	}
	lf, lok := numAt(l, i)
	rf, rok := numAt(r, i)
	if lok && rok {
		return cmpOrd(lf, rf), nil
	}
	return 0, fmt.Errorf("exec: cannot compare %s and %s", l.Type, r.Type)
}

func numAt(v *colfile.Vec, i int) (float64, bool) {
	switch v.Type {
	case colfile.Int64:
		return float64(v.Ints[i]), true
	case colfile.Float64:
		return v.Floats[i], true
	}
	return 0, false
}

func cmpOrd[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpToBool(k BinKind, cmp int) bool {
	switch k {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

func evalArith(k BinKind, l, r *colfile.Vec, i int, out *colfile.Vec) error {
	if out.Type == colfile.String {
		out.AppendStr(l.Strs[i] + r.Strs[i])
		return nil
	}
	if out.Type == colfile.Int64 {
		a, b := l.Ints[i], r.Ints[i]
		switch k {
		case OpAdd:
			out.AppendInt(a + b)
		case OpSub:
			out.AppendInt(a - b)
		case OpMul:
			out.AppendInt(a * b)
		case OpDiv:
			if b == 0 {
				return fmt.Errorf("exec: integer division by zero")
			}
			out.AppendInt(a / b)
		case OpMod:
			if b == 0 {
				return fmt.Errorf("exec: modulo by zero")
			}
			out.AppendInt(a % b)
		default:
			return fmt.Errorf("exec: bad int arith %s", binNames[k])
		}
		return nil
	}
	a, _ := numAt(l, i)
	b, _ := numAt(r, i)
	switch k {
	case OpAdd:
		out.AppendFloat(a + b)
	case OpSub:
		out.AppendFloat(a - b)
	case OpMul:
		out.AppendFloat(a * b)
	case OpDiv:
		if b == 0 {
			return fmt.Errorf("exec: division by zero")
		}
		out.AppendFloat(a / b)
	default:
		return fmt.Errorf("exec: bad float arith %s", binNames[k])
	}
	return nil
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// Type implements Expr.
func (n Not) Type(schema colfile.Schema) (colfile.DataType, error) {
	t, err := n.E.Type(schema)
	if err != nil {
		return 0, err
	}
	if t != colfile.Bool {
		return 0, fmt.Errorf("exec: NOT of %s", t)
	}
	return colfile.Bool, nil
}

// Eval implements Expr.
func (n Not) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	v, err := n.E.Eval(b)
	if err != nil {
		return nil, err
	}
	if t := logicalOperandType(n.E, v); t != colfile.Bool {
		return nil, fmt.Errorf("exec: NOT of %s", t)
	}
	out := colfile.NewVec(colfile.Bool)
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			out.AppendNull()
		} else {
			out.AppendBool(!v.Bools[i])
		}
	}
	return out, nil
}

// isNullLiteral reports whether e is an untyped NULL literal.
func isNullLiteral(e Expr) bool {
	c, ok := e.(Const)
	return ok && c.Val == nil
}

// logicalOperandType is the type NOT, AND and OR see for operand e, which
// evaluated to v: an untyped NULL literal is a boolean NULL there, as in
// Compile.
func logicalOperandType(e Expr, v *colfile.Vec) colfile.DataType {
	if isNullLiteral(e) {
		return colfile.Bool
	}
	return v.Type
}

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("NOT %s", n.E) }

// IsNull tests for NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// Type implements Expr.
func (e IsNull) Type(colfile.Schema) (colfile.DataType, error) { return colfile.Bool, nil }

// Eval implements Expr.
func (e IsNull) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	v, err := e.E.Eval(b)
	if err != nil {
		return nil, err
	}
	out := colfile.NewVec(colfile.Bool)
	for i := 0; i < v.Len(); i++ {
		out.AppendBool(v.IsNull(i) != e.Negate)
	}
	return out, nil
}

// String implements Expr.
func (e IsNull) String() string {
	if e.Negate {
		return fmt.Sprintf("%s IS NOT NULL", e.E)
	}
	return fmt.Sprintf("%s IS NULL", e.E)
}

// Like implements a simple SQL LIKE with % wildcards.
type Like struct {
	E       Expr
	Pattern string
}

// Type implements Expr.
func (e Like) Type(colfile.Schema) (colfile.DataType, error) { return colfile.Bool, nil }

// Eval implements Expr.
func (e Like) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	v, err := e.E.Eval(b)
	if err != nil {
		return nil, err
	}
	if v.Type != colfile.String {
		return nil, fmt.Errorf("exec: LIKE over %s", v.Type)
	}
	out := colfile.NewVec(colfile.Bool)
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			out.AppendNull()
			continue
		}
		out.AppendBool(likeMatch(v.Strs[i], e.Pattern))
	}
	return out, nil
}

// String implements Expr.
func (e Like) String() string { return fmt.Sprintf("%s LIKE '%s'", e.E, e.Pattern) }

// likeMatch supports % (any run) and _ (any single char).
func likeMatch(s, pat string) bool {
	// dynamic programming over pattern segments
	var match func(si, pi int) bool
	memo := make(map[[2]int]bool)
	match = func(si, pi int) bool {
		key := [2]int{si, pi}
		if v, ok := memo[key]; ok {
			return v
		}
		var res bool
		switch {
		case pi == len(pat):
			res = si == len(s)
		case pat[pi] == '%':
			res = match(si, pi+1) || (si < len(s) && match(si+1, pi))
		case si < len(s) && (pat[pi] == '_' || pat[pi] == s[si]):
			res = match(si+1, pi+1)
		}
		memo[key] = res
		return res
	}
	return match(0, 0)
}

// InList tests membership in a literal list.
type InList struct {
	E      Expr
	Vals   []any
	Negate bool
}

// Type implements Expr.
func (e InList) Type(colfile.Schema) (colfile.DataType, error) { return colfile.Bool, nil }

// Eval implements Expr.
func (e InList) Eval(b *colfile.Batch) (*colfile.Vec, error) {
	v, err := e.E.Eval(b)
	if err != nil {
		return nil, err
	}
	set := make(map[any]bool, len(e.Vals))
	for _, x := range e.Vals {
		set[normalize(x)] = true
	}
	out := colfile.NewVec(colfile.Bool)
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			out.AppendNull()
			continue
		}
		out.AppendBool(set[v.Value(i)] != e.Negate)
	}
	return out, nil
}

// String implements Expr.
func (e InList) String() string {
	op := "IN"
	if e.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%d values)", e.E, op, len(e.Vals))
}
