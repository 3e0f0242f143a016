// Command doccheck is the package-documentation gate: it walks every Go
// package in the repository and fails unless each has exactly one
// package doc comment (the doc.go convention for internal packages; a
// command comment on main for cmd/ and scripts/), and unless every
// Markdown file a Go comment names (test files included) exists, beside
// the Go file or in a directory above it up to root.
//
// # Usage
//
//	go run ./scripts/doccheck [root]
//
// root defaults to ".". Exit codes: 0 when every package is documented
// by exactly one file and every cited document exists, 1 when any
// package has no doc comment or more than one (ambiguous — godoc picks
// one file arbitrarily) or a comment cites a missing *.md file, 2 on
// usage or parse errors. testdata trees and _test.go files are skipped;
// every other package counts — examples/ included — so a freshly
// added internal package without a doc.go fails CI's docs job until
// its role, layer, and seed-discipline obligations are written down.
package main

import (
	"fmt"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// mdRef matches a Markdown file name, with or without a directory.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// danglingRefs returns the *.md names the comments of the Go file at path
// cite that exist neither beside it nor in a directory above it up to
// root.
func danglingRefs(root, path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var s scanner.Scanner
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
	var out []string
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok != token.COMMENT {
			continue
		}
		for _, ref := range mdRef.FindAllString(lit, -1) {
			if !cited(root, filepath.Dir(path), ref) {
				out = append(out, ref)
			}
		}
	}
	return out, nil
}

// cited reports whether ref names a file in dir or a directory above it,
// up to root.
func cited(root, dir, ref string) bool {
	for {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
			return true
		}
		if rel, err := filepath.Rel(root, dir); err != nil || rel == "." || strings.HasPrefix(rel, "..") {
			return false
		}
		dir = filepath.Dir(dir)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	root := "."
	switch len(os.Args) {
	case 1:
	case 2:
		root = os.Args[1]
	default:
		fmt.Fprintln(os.Stderr, "usage: doccheck [root]")
		return 2
	}

	// pkgDocs maps package directory -> files carrying a package doc
	// comment; pkgSeen tracks every directory holding non-test Go files.
	pkgDocs := make(map[string][]string)
	pkgSeen := make(map[string]bool)
	var dangling []string

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		refs, err := danglingRefs(root, path)
		if err != nil {
			return err
		}
		for _, ref := range refs {
			dangling = append(dangling, fmt.Sprintf("%s cites %s", path, ref))
		}
		if strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		pkgSeen[dir] = true
		fset := token.NewFileSet()
		// PackageClauseOnly+ParseComments keeps the walk fast and still
		// yields the doc comment attached to the package clause.
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			pkgDocs[dir] = append(pkgDocs[dir], name)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		return 2
	}

	dirs := make([]string, 0, len(pkgSeen))
	for dir := range pkgSeen {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)

	failed := false
	for _, dir := range dirs {
		docs := pkgDocs[dir]
		switch len(docs) {
		case 0:
			fmt.Printf("MISSING %-28s no package doc comment (add a doc.go stating role, layer, and seed-discipline obligations)\n", dir)
			failed = true
		case 1:
			fmt.Printf("ok      %-28s %s\n", dir, docs[0])
		default:
			sort.Strings(docs)
			fmt.Printf("DUP     %-28s package doc comment in %d files: %s\n", dir, len(docs), strings.Join(docs, ", "))
			failed = true
		}
	}
	for _, d := range dangling {
		fmt.Printf("DANGLING %s, which does not exist\n", d)
		failed = true
	}
	if failed {
		fmt.Println("doccheck: FAILED")
		return 1
	}
	fmt.Printf("doccheck: %d packages documented\n", len(dirs))
	return 0
}
