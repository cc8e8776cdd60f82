// Package lint is repolint's analysis engine: a stdlib-only static
// checker (go/parser + go/ast + go/types, no external modules) that
// enforces the repository conventions the compiler cannot see. The
// reproduction's value rests on invariants that live between packages:
// engines must be bit-identical to their oracles, sweep and
// campaign output must be byte-identical for any worker count and
// across crash/resume, every workload must resolve through the
// internal/circuits registry, and every netlist.Circuit mutation must
// drop the simCaches bundle. Each analyzer machine-checks one such
// contract and reports findings as file:line: analyzer: message.
//
// # Analyzer table
//
// Analyzers are registered in the table returned by All, each with a
// name (the -only/-skip key of cmd/repolint), a doc string, and
// fixture tests under testdata/. To add an analyzer: write its Run
// function over a Pass, append it to All, and give it a good/bad
// fixture pair proving it fires exactly where intended.
//
// # Annotation comments
//
//	//repolint:ordered   on (or directly above) a `range` statement
//	                     over a map: the iteration order provably
//	                     cannot affect results (e.g. a key harvest that
//	                     is sorted before use). Justify in the comment.
//	//repolint:hotpath   on a function declaration: opts the function
//	                     into the hotpath analyzer's allocation and
//	                     formatting bans.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the file:line: analyzer: message form
// the driver prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one registered convention check.
type Analyzer struct {
	// Name keys the analyzer in findings and in the driver's
	// -only/-skip flags.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run reports the analyzer's findings over one package.
	Run func(p *Pass) []Finding
}

// All returns the analyzer table in registration order.
func All() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer,
		registryAnalyzer,
		invalidationAnalyzer,
		hotpathAnalyzer,
		sentinelAnalyzer,
	}
}

// Lookup returns the analyzer with the given name.
func Lookup(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path of the package under analysis
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// directives maps file name -> line -> repolint directive names
	// ("ordered", "hotpath") present on that line; built lazily.
	directives map[string]map[int][]string
}

// pathHasSuffix reports whether the pass's import path is exactly
// suffix or ends in "/"+suffix. Scoped analyzers match on suffixes so
// that the fixture packages under testdata/ (whose import paths are
// prefixed with the lint package's own directory) exercise the same
// scoping logic as the real tree.
func (p *Pass) pathHasSuffix(suffix string) bool {
	return p.Path == suffix || strings.HasSuffix(p.Path, "/"+suffix)
}

// finding appends a finding at pos.
func (p *Pass) finding(list []Finding, name string, pos token.Pos, format string, args ...any) []Finding {
	return append(list, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// callee resolves a call expression to the named function or method it
// invokes, or nil for builtins, conversions, and calls through
// function values.
func (p *Pass) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// isBuiltin reports whether the call invokes the named language
// builtin (make, delete, ...).
func (p *Pass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// buildDirectives scans every comment in the pass for
// //repolint:<name> directives and records the line each sits on.
func (p *Pass) buildDirectives() {
	if p.directives != nil {
		return
	}
	p.directives = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//repolint:")
				if !ok {
					continue
				}
				name := rest
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					name = rest[:i]
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					p.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], name)
			}
		}
	}
}

// directiveAt reports whether a //repolint:<name> directive sits on
// the given file line.
func (p *Pass) directiveAt(name, file string, line int) bool {
	p.buildDirectives()
	for _, d := range p.directives[file][line] {
		if d == name {
			return true
		}
	}
	return false
}

// annotated reports whether the node carries the directive on its own
// first line or on the line directly above it — the contract for
// statement-level annotations like //repolint:ordered.
func (p *Pass) annotated(name string, node ast.Node) bool {
	pos := p.Fset.Position(node.Pos())
	return p.directiveAt(name, pos.Filename, pos.Line) ||
		p.directiveAt(name, pos.Filename, pos.Line-1)
}

// funcAnnotated reports whether the function declaration carries the
// directive, either anywhere in its doc comment group or on the line
// directly above the declaration.
func (p *Pass) funcAnnotated(name string, fn *ast.FuncDecl) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if strings.HasPrefix(c.Text, "//repolint:"+name) {
				return true
			}
		}
	}
	return p.annotated(name, fn)
}

// errorType is the universe error interface, for implements checks.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is (or implements) the error
// interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}
