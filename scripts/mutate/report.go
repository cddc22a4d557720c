package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func report(root string) error {
	ms, err := enumerate(root)
	if err != nil {
		return err
	}
	// Read the reasons now to fail early on a malformed file, and again
	// when rendering: they decide nothing about a run.
	if _, err := loadReasons(reasonsFile); err != nil {
		return err
	}
	pkgs := map[string]bool{}
	for _, c := range chain {
		pkgs[c] = true
	}
	for _, s := range scope {
		pkgs["./"+s.pkg] = true
	}
	tests, err := baseline(root, sortedKeys(pkgs))
	if err != nil {
		return err
	}
	outs, err := runAll(root, ms, func(m *Mutant) [][]string {
		own := "./" + m.Pkg
		var rest []string
		for _, c := range chain {
			if c != own {
				rest = append(rest, c)
			}
		}
		return [][]string{{own}, rest}
	}, false)
	if err != nil {
		return err
	}
	if err := writeRaw(ms, outs); err != nil {
		return err
	}
	reasons, err := loadReasons(reasonsFile)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, reportFile), render(ms, outs, tests, reasons), 0o644)
}

// loadReasons reads equivalent.txt: an unindented line "file key"
// names a survivor (the key as the report prints it), and the indented
// lines after it say why the mutant cannot change any output. Lines
// starting with # are comments.
func loadReasons(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reasons := map[string]string{}
	key := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "":
		case line[0] == ' ' || line[0] == '\t':
			if key == "" {
				return nil, fmt.Errorf("%s: a reason before any key: %q", path, line)
			}
			reasons[key] = strings.TrimSpace(reasons[key] + " " + strings.TrimSpace(line))
		default:
			key = line
			if _, dup := reasons[key]; dup {
				return nil, fmt.Errorf("%s: %q listed twice", path, key)
			}
			reasons[key] = ""
		}
	}
	return reasons, sc.Err()
}

func reasonKey(m *Mutant) string { return m.File + " " + m.Key }

func writeRaw(ms []*Mutant, outs []Outcome) error {
	type row struct {
		ID, Key string
		Outcome
	}
	rows := make([]row, len(ms))
	for i, m := range ms {
		rows[i] = row{m.ID(), m.Key, outs[i]}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(os.TempDir(), rawFile), b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func clip(s string) string {
	if r := []rune(s); len(r) > 100 {
		return string(r[:97]) + "..."
	}
	return s
}

func code(s string) string { return "`" + strings.ReplaceAll(s, "`", "'") + "`" }

// render writes MUTATION.md. It holds no timings and every list is
// sorted, so the same results give the same bytes.
func render(ms []*Mutant, outs []Outcome, tests []string, reasons map[string]string) []byte {
	var b strings.Builder
	p := func(format string, a ...any) { fmt.Fprintf(&b, format, a...) }

	type score struct{ mutants, viable, killed, equivalent, survived int }
	perPkg := map[string]*score{}
	total := &score{}
	byPkg := func(m *Mutant) *score {
		if perPkg[m.Pkg] == nil {
			perPkg[m.Pkg] = &score{}
		}
		return perPkg[m.Pkg]
	}
	kills := map[string][]int{}  // test → mutants it killed
	unique := map[string][]int{} // test → mutants only it killed
	used := map[string]bool{}
	var limited, survivors, equivalent []int
	for i, m := range ms {
		o := outs[i]
		for _, s := range []*score{byPkg(m), total} {
			s.mutants++
			switch {
			case o.Status == "not viable":
				continue
			case o.Status == "killed":
				s.killed++
			case reasons[reasonKey(m)] != "":
				s.equivalent++
			default:
				s.survived++
			}
			s.viable++
		}
		switch o.Status {
		case "killed":
			for _, k := range o.Killers {
				kills[k] = append(kills[k], i)
			}
			if len(o.Killers) == 1 {
				unique[o.Killers[0]] = append(unique[o.Killers[0]], i)
			}
			if o.Limit != "" {
				limited = append(limited, i)
			}
		case "survived":
			if reasons[reasonKey(m)] != "" {
				equivalent = append(equivalent, i)
				used[reasonKey(m)] = true
			} else {
				survivors = append(survivors, i)
			}
		}
	}

	p("# Mutation report\n\n")
	p("Generated by `go run -C scripts/mutate . report` (see `scripts/mutate/main.go`); do not edit.\n")
	p("Each mutant is one edit to a production file: `<`↔`<=`, `>`↔`>=` (boundary), `==`↔`!=` (equality),\n")
	p("`+`↔`-` and `+=`↔`-=` (arithmetic), an integer literal ±1 (literal), `&&`↔`||` (logical), a negated\n")
	p("`if` condition (negate-if), or a deleted assignment, inc/dec or call statement (delete). A mutant\n")
	p("runs against its package's tests; if none fails, against the chain (`%s`).\n", strings.Join(chain, "`, `"))
	p("A mutant that does not compile is not viable. A survivor listed in `scripts/mutate/%s` is\n", reasonsFile)
	p("equivalent: no input can tell it from the original. Score = killed / (viable − equivalent).\n\n")

	p("## Score\n\n")
	p("| package | mutants | viable | killed | equivalent | survived | score |\n")
	p("|---|---:|---:|---:|---:|---:|---:|\n")
	row := func(name string, s *score) {
		pct := 100.0
		if d := s.viable - s.equivalent; d > 0 {
			pct = 100 * float64(s.killed) / float64(d)
		}
		p("| %s | %d | %d | %d | %d | %d | %.1f%% |\n", name, s.mutants, s.viable, s.killed, s.equivalent, s.survived, pct)
	}
	for _, k := range sortedKeys(perPkg) {
		row(k, perPkg[k])
	}
	row("**all**", total)

	line := func(i int) string {
		m := ms[i]
		return fmt.Sprintf("`%s:%d:%d` %s in `%s`: %s → %s", m.File, m.Line, m.Col, m.Op, m.Func, code(clip(m.Orig)), code(clip(m.Mut)))
	}
	p("\n## Survivors (%d)\n\n", len(survivors))
	if len(survivors) == 0 {
		p("None.\n")
	}
	for _, i := range survivors {
		p("- %s\n  line: %s\n", line(i), code(clip(ms[i].Snippet)))
	}
	p("\n## Equivalent (%d)\n\n", len(equivalent))
	for _, i := range equivalent {
		p("- %s\n  %s\n", line(i), reasons[reasonKey(ms[i])])
	}
	var stale []string
	for k := range reasons {
		if !used[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		p("\n### Reasons that match no survivor (%d)\n\n", len(stale))
		for _, k := range stale {
			p("- %s\n", code(k))
		}
	}
	p("\n## Killed by a limit (%d)\n\n", len(limited))
	for _, i := range limited {
		p("- %s: %s\n", line(i), outs[i].Limit)
	}

	p("\n## Tests\n\n")
	p("For each test, how many mutants it killed among the runs it took part in, and the mutants no\n")
	p("other test killed. A chain test runs only against the mutants its package's tests miss.\n\n")
	p("| test | killed | only killer of |\n|---|---:|---|\n")
	all := map[string]bool{}
	for _, t := range tests {
		all[t] = true
	}
	for t := range kills {
		all[t] = true
	}
	for _, t := range sortedKeys(all) {
		var ids []string
		for _, i := range unique[t] {
			ids = append(ids, code(ms[i].ID()))
		}
		only := "—"
		if len(ids) > 0 {
			only = fmt.Sprintf("%d: %s", len(ids), strings.Join(ids, ", "))
		}
		p("| %s | %d | %s |\n", code(t), len(kills[t]), only)
	}
	return []byte(b.String())
}
