package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Operator names, as the report prints them.
const (
	opBoundary = "boundary"   // < ↔ <=, > ↔ >=
	opEquality = "equality"   // == ↔ !=
	opArith    = "arithmetic" // + ↔ -, += ↔ -=
	opLiteral  = "literal"    // an integer literal ±1, as "literal+1" and "literal-1"
	opLogical  = "logical"    // && ↔ ||
	opNegateIf = "negate-if"  // if c → if !(c)
	opDelete   = "delete"     // an assignment, inc/dec or call statement removed
)

var swaps = map[token.Token]struct {
	to token.Token
	op string
}{
	token.LSS: {token.LEQ, opBoundary}, token.LEQ: {token.LSS, opBoundary},
	token.GTR: {token.GEQ, opBoundary}, token.GEQ: {token.GTR, opBoundary},
	token.EQL: {token.NEQ, opEquality}, token.NEQ: {token.EQL, opEquality},
	token.ADD: {token.SUB, opArith}, token.SUB: {token.ADD, opArith},
	token.ADD_ASSIGN: {token.SUB_ASSIGN, opArith}, token.SUB_ASSIGN: {token.ADD_ASSIGN, opArith},
	token.LAND: {token.LOR, opLogical}, token.LOR: {token.LAND, opLogical},
}

// A Mutant is one source edit: bytes [start, end) of File become repl.
type Mutant struct {
	Pkg     string // directory, slash-separated and relative to the repository root
	File    string // path, slash-separated and relative to the repository root
	Line    int
	Col     int
	Func    string // enclosing function, "(*T).M" or "F"; "package" outside any
	Op      string
	Orig    string // the mutated expression or statement, whitespace collapsed
	Mut     string // what it becomes, whitespace collapsed
	Snippet string // the source line, trimmed
	Key     string // Func + expression edit, without a line number: survives line shifts

	start, end int
	repl       string
}

// ID names a mutant by position, for the report.
func (m *Mutant) ID() string { return fmt.Sprintf("%s:%d:%d %s", m.File, m.Line, m.Col, m.Op) }

// Apply returns the mutated source.
func (m *Mutant) Apply(src []byte) []byte {
	out := make([]byte, 0, len(src)+len(m.repl))
	out = append(out, src[:m.start]...)
	out = append(out, m.repl...)
	return append(out, src[m.end:]...)
}

func collapse(s string) string { return strings.Join(strings.Fields(s), " ") }

// enumerate lists the mutants of every file in scope, sorted by file
// and position.
func enumerate(root string) ([]*Mutant, error) {
	var all []*Mutant
	for _, s := range scope {
		files := s.files
		if files == nil {
			ents, err := os.ReadDir(filepath.Join(root, s.pkg))
			if err != nil {
				return nil, err
			}
			for _, e := range ents {
				n := e.Name()
				if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
					files = append(files, n)
				}
			}
		}
		for _, f := range files {
			ms, err := mutantsOf(root, s.pkg, s.pkg+"/"+f)
			if err != nil {
				return nil, err
			}
			all = append(all, ms...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.start != b.start {
			return a.start < b.start
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.repl < b.repl
	})
	// Identical edits inside one function share a key: number them in
	// source order.
	seen := map[string]int{}
	for _, m := range all {
		k := m.File + "\x00" + m.Key
		seen[k]++
		if n := seen[k]; n > 1 {
			m.Key += fmt.Sprintf(" #%d", n)
		}
	}
	return all, nil
}

func mutantsOf(root, pkg, rel string) ([]*Mutant, error) {
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, rel, src, 0)
	if err != nil {
		return nil, err
	}
	off := func(p token.Pos) int { return fset.Position(p).Offset }
	text := func(n ast.Node) string { return string(src[off(n.Pos()):off(n.End())]) }
	lines := strings.Split(string(src), "\n")

	var out []*Mutant
	add := func(fn, op string, ctx ast.Node, start, end int, repl string) {
		p := fset.Position(token.Pos(fset.File(ctx.Pos()).Base() + start))
		cs, ce := off(ctx.Pos()), off(ctx.End())
		orig := collapse(string(src[cs:ce]))
		mut := collapse(string(src[cs:start]) + repl + string(src[end:ce]))
		if mut == "" {
			mut = "(deleted)"
		}
		out = append(out, &Mutant{
			Pkg: pkg, File: rel, Line: p.Line, Col: p.Column, Func: fn, Op: op,
			Orig: orig, Mut: mut, Snippet: strings.TrimSpace(lines[p.Line-1]),
			Key:   fn + ": " + orig + " → " + mut,
			start: start, end: end, repl: repl,
		})
	}

	stmtLists := func(n ast.Node) []ast.Stmt {
		switch n := n.(type) {
		case *ast.BlockStmt:
			return n.List
		case *ast.CaseClause:
			return n.Body
		case *ast.CommClause:
			return n.Body
		}
		return nil
	}

	for _, d := range file.Decls {
		fn := "package"
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = funcName(fd, text)
		}
		// stack holds the ancestors of the node being visited.
		var stack []ast.Node
		ast.Inspect(d, func(c ast.Node) bool {
			if c == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			switch c := c.(type) {
			case *ast.BinaryExpr:
				if s, ok := swaps[c.Op]; ok {
					p := off(c.OpPos)
					add(fn, s.op, c, p, p+len(c.Op.String()), s.to.String())
				}
			case *ast.AssignStmt:
				if s, ok := swaps[c.Tok]; ok {
					p := off(c.TokPos)
					add(fn, s.op, c, p, p+len(c.Tok.String()), s.to.String())
				}
			case *ast.BasicLit:
				if v, err := strconv.ParseInt(strings.ReplaceAll(c.Value, "_", ""), 0, 64); c.Kind == token.INT && err == nil {
					// A literal is keyed by the expression or statement
					// around it; a case label by itself.
					ctx := ast.Node(c)
					if len(stack) > 0 {
						if _, isCase := stack[len(stack)-1].(*ast.CaseClause); !isCase {
							ctx = stack[len(stack)-1]
						}
					}
					for _, d := range []int64{1, -1} {
						r := strconv.FormatInt(v+d, 10)
						if v+d < 0 {
							r = "(" + r + ")"
						}
						add(fn, fmt.Sprintf("%s%+d", opLiteral, d), ctx, off(c.Pos()), off(c.End()), r)
					}
				}
			case *ast.IfStmt:
				add(fn, opNegateIf, c.Cond, off(c.Cond.Pos()), off(c.Cond.End()), "!("+text(c.Cond)+")")
			}
			for _, st := range stmtLists(c) {
				del := false
				switch st := st.(type) {
				case *ast.ExprStmt:
					_, del = st.X.(*ast.CallExpr)
				case *ast.AssignStmt:
					del = st.Tok != token.DEFINE
				case *ast.IncDecStmt:
					del = true
				}
				if del {
					add(fn, opDelete, st, off(st.Pos()), off(st.End()), "")
				}
			}
			stack = append(stack, c)
			return true
		})
	}
	return out, nil
}

// funcName renders a declaration as "F", "(T).M" or "(*T).M".
func funcName(fd *ast.FuncDecl, text func(ast.Node) string) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if ix, ok := recv.(*ast.IndexExpr); ok { // generic receiver T[E]
		recv = ix.X
	}
	if st, ok := recv.(*ast.StarExpr); ok {
		if ix, ok := st.X.(*ast.IndexExpr); ok {
			return "(*" + text(ix.X) + ")." + fd.Name.Name
		}
	}
	return "(" + text(recv) + ")." + fd.Name.Name
}
