// Package cast defines the abstract syntax tree for the C subset analyzed
// by CSSV, including the contract clauses of paper §2.2 and the
// assert/assume verification statements emitted by the contract inliner
// (§3.2, Table 2).
//
// Contract-language attributes (Table 1) appear in the AST as ordinary
// calls to the reserved names alloc, offset, base, strlen, is_nullt,
// is_within_bounds and pre; package contract gives them meaning.
package cast

import (
	"repro/internal/clex"
	"repro/internal/ctypes"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() clex.Pos
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is a C expression. Every expression carries the type computed by the
// parser's checker (nil only for expressions in unchecked contract text).
type Expr interface {
	Node
	Type() ctypes.Type
	exprNode()
}

type exprBase struct {
	P clex.Pos
	T ctypes.Type
}

func (e *exprBase) Pos() clex.Pos         { return e.P }
func (e *exprBase) Type() ctypes.Type     { return e.T }
func (e *exprBase) SetType(t ctypes.Type) { e.T = t }
func (*exprBase) exprNode()               {}

// Ident is a variable or function reference.
type Ident struct {
	exprBase
	Name string
}

// IntLit is an integer constant. Character constants are represented as
// IntLit with IsChar set so the printer can round-trip them.
type IntLit struct {
	exprBase
	Value  int64
	IsChar bool
}

// StringLit is a string literal; it denotes a fresh static buffer of
// len(Value)+1 bytes holding a null-terminated string.
type StringLit struct {
	exprBase
	Value string
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	Deref  UnaryOp = iota // *x
	Addr                  // &x
	Neg                   // -x
	LogNot                // !x
	BitNot                // ~x
)

var unaryNames = [...]string{Deref: "*", Addr: "&", Neg: "-", LogNot: "!", BitNot: "~"}

func (op UnaryOp) String() string { return unaryNames[op] }

// Unary is a unary operation.
type Unary struct {
	exprBase
	Op UnaryOp
	X  Expr
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	Add BinaryOp = iota
	Sub
	Mul
	Div
	Rem
	Shl
	Shr
	BitAnd
	BitOr
	BitXor
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	LogAnd
	LogOr
)

var binaryNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Rem: "%", Shl: "<<", Shr: ">>",
	BitAnd: "&", BitOr: "|", BitXor: "^", Lt: "<", Le: "<=", Gt: ">",
	Ge: ">=", Eq: "==", Ne: "!=", LogAnd: "&&", LogOr: "||",
}

func (op BinaryOp) String() string { return binaryNames[op] }

// IsComparison reports whether op yields a boolean (0/1) result.
func (op BinaryOp) IsComparison() bool { return op >= Lt && op <= Ne }

// IsLogical reports whether op is && or ||.
func (op BinaryOp) IsLogical() bool { return op == LogAnd || op == LogOr }

// Binary is a binary operation.
type Binary struct {
	exprBase
	Op   BinaryOp
	X, Y Expr
}

// Assign is an assignment expression. Op is Add/Sub/... for compound
// assignments and -1 for plain "=".
type Assign struct {
	exprBase
	Op  BinaryOp // -1 for plain =
	LHS Expr
	RHS Expr
}

// PlainAssign is the Op value of a non-compound assignment.
const PlainAssign BinaryOp = -1

// IncDec is ++x, --x, x++ or x--.
type IncDec struct {
	exprBase
	X      Expr
	Decr   bool
	Prefix bool
}

// Call is a function call. Fun is an Ident for direct calls or an arbitrary
// expression for calls through function pointers.
type Call struct {
	exprBase
	Fun  Expr
	Args []Expr
}

// FuncName returns the callee name for a direct call, or "".
func (c *Call) FuncName() string {
	switch f := c.Fun.(type) {
	case *Ident:
		return f.Name
	case *Unary:
		if f.Op == Deref {
			if id, ok := f.X.(*Ident); ok {
				return id.Name
			}
		}
	}
	return ""
}

// Index is x[i].
type Index struct {
	exprBase
	X, I Expr
}

// Member is x.Name or x->Name.
type Member struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
}

// Cast is (T)x.
type Cast struct {
	exprBase
	To ctypes.Type
	X  Expr
}

// SizeofType is sizeof(T); sizeof(expr) is folded to IntLit by the parser.
type SizeofType struct {
	exprBase
	Of ctypes.Type
}

// Cond is the ternary c ? t : f.
type Cond struct {
	exprBase
	C, Then, Else Expr
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is a C statement.
type Stmt interface {
	Node
	stmtNode()
}

type stmtBase struct{ P clex.Pos }

func (s *stmtBase) Pos() clex.Pos { return s.P }
func (*stmtBase) stmtNode()       {}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	stmtBase
	X Expr
}

// Block is { ... }.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// If is an if/else statement.
type If struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
}

// While is a while loop.
type While struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// DoWhile is a do { } while loop.
type DoWhile struct {
	stmtBase
	Body Stmt
	Cond Expr
}

// For is a for loop. Init/Cond/Post may be nil.
type For struct {
	stmtBase
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Return is a return statement; X may be nil.
type Return struct {
	stmtBase
	X Expr
}

// Break is a break statement.
type Break struct{ stmtBase }

// Continue is a continue statement.
type Continue struct{ stmtBase }

// Goto is a goto statement.
type Goto struct {
	stmtBase
	Label string
}

// Labeled is "Label: Stmt".
type Labeled struct {
	stmtBase
	Label string
	Stmt  Stmt
}

// Empty is ";".
type Empty struct{ stmtBase }

// DeclStmt is a local declaration. CoreC forbids initializers; the
// normalizer splits them into separate assignments.
type DeclStmt struct {
	stmtBase
	Decl *VarDecl
	Init Expr // nil after CoreC normalization
}

// VerifyKind distinguishes assert from assume.
type VerifyKind int

// Verification statement kinds (paper §3.2).
const (
	Assert VerifyKind = iota // execution is erroneous if Cond is false
	Assume                   // execution is blocked if Cond is false
)

func (k VerifyKind) String() string {
	if k == Assert {
		return "__assert"
	}
	return "__assume"
}

// Verify is an __assert(e) or __assume(e) statement. Reason records why the
// inliner emitted it (e.g. "precondition of g") for message reporting.
type Verify struct {
	stmtBase
	Kind   VerifyKind
	Cond   Expr
	Reason string
	// Site is the source position blamed in reports (the call site for
	// inlined precondition asserts); falls back to Pos() when unset.
	Site clex.Pos
}

// Where returns the position to blame in diagnostics.
func (v *Verify) Where() clex.Pos {
	if v.Site.IsValid() {
		return v.Site
	}
	return v.P
}

// ---------------------------------------------------------------------------
// Declarations

// Decl is a top-level declaration.
type Decl interface {
	Node
	declNode()
}

type declBase struct{ P clex.Pos }

func (d *declBase) Pos() clex.Pos { return d.P }
func (*declBase) declNode()       {}

// StorageClass captures extern/static.
type StorageClass int

// Storage classes.
const (
	SCNone StorageClass = iota
	SCExtern
	SCStatic
)

// VarDecl declares a variable (global or local).
type VarDecl struct {
	declBase
	Name     string
	DeclType ctypes.Type
	Storage  StorageClass
}

// Param is a function parameter.
type Param struct {
	Name string
	Type ctypes.Type
}

// Contract is the requires/modifies/ensures triple of paper §2.2.
// Requires/Ensures are nil for "true"; Modifies lists L-value expressions
// and attribute references that the function may change.
type Contract struct {
	Requires Expr
	Modifies []Expr
	Ensures  Expr
}

// IsVacuous reports whether the contract constrains nothing beyond
// side effects.
func (c *Contract) IsVacuous() bool {
	return c == nil || (c.Requires == nil && c.Ensures == nil)
}

// FuncDecl declares (Body == nil) or defines a function.
type FuncDecl struct {
	declBase
	Name     string
	Ret      ctypes.Type
	Params   []Param
	Variadic bool
	Body     *Block // nil for prototypes
	Contract *Contract
}

// StructDecl declares a struct or union type.
type StructDecl struct {
	declBase
	Type *ctypes.Struct
}

// TypedefDecl records a typedef (resolved at parse time; kept for printing).
type TypedefDecl struct {
	declBase
	Name string
	Of   ctypes.Type
}

// ReturnValueName is the designated contract variable for a function's
// return value (paper §2.2).
const ReturnValueName = "return_value"

// File is a parsed translation unit.
type File struct {
	Name  string
	Decls []Decl
}

// Funcs returns the function definitions in the file.
func (f *File) Funcs() []*FuncDecl {
	var out []*FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// Lookup returns the declaration of the function named name (preferring a
// definition over a prototype), or nil.
func (f *File) Lookup(name string) *FuncDecl {
	var proto *FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok && fd.Name == name {
			if fd.Body != nil {
				return fd
			}
			proto = fd
		}
	}
	return proto
}
