package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// hotpathPrefix marks a function as a measured hot path. Like
// go:build and fairlint:allow directives, it must start the comment
// with no space after "//". The optional remainder is a free-form note
// ("fairbench case packet-parse") recorded for humans; the annotation
// itself is what arms rule hotalloc on the function and everything it
// reaches inside the hot-path scope.
const hotpathPrefix = "//fairbench:hotpath"

// ParseHotpath parses the text of a single line comment (including the
// leading "//"). It returns the free-form note and whether the comment
// is a fairbench:hotpath directive at all. "//fairbench:hotpathology"
// is not a directive: a word boundary is required after the marker.
func ParseHotpath(text string) (note string, ok bool) {
	rest, ok := strings.CutPrefix(text, hotpathPrefix)
	if !ok {
		return "", false
	}
	if rest != "" && !isSpace(rest[0]) {
		return "", false
	}
	return strings.Join(strings.Fields(rest), " "), true
}

// hotpathLines returns, per file, the set of lines carrying a
// fairbench:hotpath directive. A function is annotated when a
// directive appears in its doc comment or on the line immediately
// above its declaration (the doc comment covers the idiomatic case;
// the line-above form mirrors fairlint:allow placement).
func hotpathLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if _, ok := ParseHotpath(c.Text); ok {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// isHotpathDecl reports whether decl carries a fairbench:hotpath
// annotation, given the file's directive line set.
func isHotpathDecl(fset *token.FileSet, lines map[int]bool, decl *ast.FuncDecl) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if _, ok := ParseHotpath(c.Text); ok {
				return true
			}
		}
	}
	return lines[fset.Position(decl.Pos()).Line-1]
}
