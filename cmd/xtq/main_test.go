package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const doc = `<db><part><pname>kb</pname><price>9</price></part></db>`

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMethods(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "doc.xml", doc)
	query := `transform copy $a := doc("d") modify do delete $a//price return $a`
	for _, method := range []string{"naive", "topdown", "twopass", "copyupdate", "sax"} {
		var sb strings.Builder
		err := run(context.Background(), []string{"-in", in, "-query", query, "-method", method}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if strings.Contains(sb.String(), "<price>") {
			t.Errorf("%s: price not deleted: %s", method, sb.String())
		}
		if !strings.Contains(sb.String(), "<pname>kb</pname>") {
			t.Errorf("%s: content damaged: %s", method, sb.String())
		}
	}
}

func TestRunQueryFromFile(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "doc.xml", doc)
	qf := write(t, dir, "q.tq", `transform copy $a := doc("d") modify do rename $a//pname as name return $a`)
	out := filepath.Join(dir, "out.xml")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-in", in, "-query", "@" + qf, "-out", out}, &sb); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "<name>kb</name>") {
		t.Errorf("rename missing: %s", b)
	}
}

func TestRunIndent(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "doc.xml", doc)
	var sb strings.Builder
	err := run(context.Background(), []string{"-in", in, "-indent",
		"-query", `transform copy $a := doc("d") modify do delete $a//price return $a`}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\n") {
		t.Errorf("indent produced single line")
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "doc.xml", doc)
	query := `transform copy $a := doc("d") modify do delete $a//price return $a`
	cases := [][]string{
		{},
		{"-in", in},
		{"-query", query},
		{"-in", dir + "/missing.xml", "-query", query},
		{"-in", in, "-query", "not a query"},
		{"-in", in, "-query", "@" + dir + "/missing.tq"},
		{"-in", in, "-query", query, "-method", "bogus"},
		{"-in", in, "-query", query, "-out", dir + "/no/dir/out.xml"},
		{"-in", dir + "/missing.xml", "-query", query, "-method", "sax"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(context.Background(), args, &sb); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestRunUserQuery(t *testing.T) {
	dir := t.TempDir()
	in := write(t, dir, "doc.xml", doc)
	var sb strings.Builder
	err := run(context.Background(), []string{"-in", in,
		"-query", `transform copy $a := doc("d") modify do delete $a//price return $a`,
		"-user", `for $x in /db/part return $x/pname`}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<result>") {
		t.Errorf("missing <result> root: %s", out)
	}
	if !strings.Contains(out, "<pname>kb</pname>") || strings.Contains(out, "<price>") {
		t.Errorf("composed result wrong: %s", out)
	}
}

// TestUserQueryValidatedBeforeInput asserts that a bad -user query is
// rejected up front, before the input document is touched (the input
// path does not exist, so reaching the parser would produce a file error
// instead).
func TestUserQueryValidatedBeforeInput(t *testing.T) {
	query := `transform copy $a := doc("d") modify do delete $a//price return $a`
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-in", t.TempDir() + "/never-created.xml",
		"-query", query, "-user", "for broken"}, &sb)
	if err == nil {
		t.Fatal("broken -user accepted")
	}
	if !strings.Contains(err.Error(), "invalid -user") {
		t.Errorf("error does not blame the user query: %v", err)
	}
	// Composition has its own algorithm: an explicit -method (streaming
	// or in-memory) cannot take effect and is rejected, not ignored.
	for _, m := range []string{"sax", "naive"} {
		err = run(context.Background(), []string{
			"-in", t.TempDir() + "/never-created.xml",
			"-query", query, "-user", "for $x in /db/part return $x", "-method", m}, &sb)
		if err == nil || !strings.Contains(err.Error(), "-method does not apply") {
			t.Errorf("%s+user combination not rejected: %v", m, err)
		}
	}
}

// TestSAXIndentRejectedBeforeInput: the streaming evaluator cannot
// pretty-print, so -method sax -indent is refused up front (the input
// path does not exist) instead of printing one line and exiting 0.
func TestSAXIndentRejectedBeforeInput(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-in", t.TempDir() + "/never-created.xml",
		"-query", `transform copy $a := doc("d") modify do delete $a//price return $a`,
		"-method", "sax", "-indent"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-indent does not apply") {
		t.Errorf("sax+indent combination not rejected: %v", err)
	}
	if sb.Len() != 0 {
		t.Errorf("rejected run wrote output: %q", sb.String())
	}
}

// TestMethodValidatedBeforeInput asserts that a bad -method is rejected
// up front: the input path does not exist, so reaching the parser would
// produce a file error instead of the method error.
func TestMethodValidatedBeforeInput(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-in", t.TempDir() + "/never-created.xml",
		"-query", `transform copy $a := doc("d") modify do delete $a//price return $a`,
		"-method", "bogus"}, &sb)
	if err == nil {
		t.Fatal("bogus method accepted")
	}
	if !strings.Contains(err.Error(), "invalid -method") {
		t.Errorf("error does not blame the method: %v", err)
	}
	for _, m := range []string{"naive", "topdown", "twopass", "copyupdate", "sax"} {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("error does not list valid method %q: %v", m, err)
		}
	}
}
