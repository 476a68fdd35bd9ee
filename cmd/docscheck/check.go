package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// facts is everything the code side declares: the vocabulary the docs are
// checked against.
type facts struct {
	flags       map[string]bool // CLI flag names, without dashes
	makeTargets map[string]bool
	envVars     map[string]bool // CUBIE_* literals in .go files
	// codeEnvVars is the subset of envVars found in non-test .go files: the
	// real knob surface, which the docs must cover in the reverse direction
	// (tests may mention extra variables without creating a doc obligation).
	codeEnvVars map[string]bool

	// The serve control API surface (internal/server). Routes are the
	// literal patterns registered through s.handle ("GET /api/v1/figures");
	// configKeys and serveEnv are the json/env struct tags of
	// internal/server/config.go. All three are checked in BOTH directions
	// against docs/SERVE.md: a documented route or key must exist in the
	// code, and everything the code registers must be documented.
	routes     map[string]bool
	configKeys map[string]bool
	serveEnv   map[string]bool
}

var (
	reMakeTarget = regexp.MustCompile(`^([A-Za-z0-9][A-Za-z0-9_.-]*):`)
	reFlagDef    = regexp.MustCompile(`\.(?:String|Int|Int64|Uint|Bool|Float64|Duration)\("([a-z][a-z0-9-]*)"`)
	reEnvDef     = regexp.MustCompile(`"(CUBIE_[A-Z][A-Z0-9_]*)"`)
	reRouteDef   = regexp.MustCompile(`\bhandle\("((?:GET|POST|PUT|DELETE|PATCH|HEAD) /[^"]*)"`)
	reJSONTag    = regexp.MustCompile("`json:\"([a-z_]+)\" env:\"(CUBIE_[A-Z0-9_]*)\"`")

	reFlagRef   = regexp.MustCompile(`--([a-z][a-z0-9-]*)`)
	reMakeRef   = regexp.MustCompile(`\bmake ([a-z][a-z0-9_.-]*)`)
	reEnvRef    = regexp.MustCompile(`\bCUBIE_[A-Z][A-Z0-9_]*\b`)
	reRouteRef  = regexp.MustCompile(`\b(GET|POST|PUT|DELETE|PATCH|HEAD) (/[A-Za-z0-9_{}./-]*)`)
	reSpan      = regexp.MustCompile("`([^`]*)`")
	reConfigKey = regexp.MustCompile("^\\|\\s*`([a-z_]+)`")
)

// serveDoc is the API reference the serve surface is reconciled against.
const serveDoc = "docs/SERVE.md"

// gather collects the code-side facts from the repository at root.
func gather(root string) (*facts, error) {
	f := &facts{
		flags:       map[string]bool{},
		makeTargets: map[string]bool{},
		envVars:     map[string]bool{},
		codeEnvVars: map[string]bool{},
		routes:      map[string]bool{},
		configKeys:  map[string]bool{},
		serveEnv:    map[string]bool{},
	}

	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, fmt.Errorf("read Makefile: %w", err)
	}
	for _, line := range strings.Split(string(mk), "\n") {
		if m := reMakeTarget.FindStringSubmatch(line); m != nil && m[1] != ".PHONY" {
			f.makeTargets[m[1]] = true
		}
	}

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Docs only talk about this repository's code.
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range reEnvDef.FindAllStringSubmatch(string(src), -1) {
			f.envVars[m[1]] = true
			if !strings.HasSuffix(path, "_test.go") {
				f.codeEnvVars[m[1]] = true
			}
		}
		// Flag definitions live in the command packages and in the
		// benchmark's driver (bench/, its own module).
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, "cmd/") ||
			(strings.HasPrefix(rel, "bench/") && !strings.HasSuffix(rel, "_test.go")) {
			for _, m := range reFlagDef.FindAllStringSubmatch(string(src), -1) {
				f.flags[m[1]] = true
			}
		}
		// The serve API surface: route registrations anywhere in
		// internal/server (tests excluded — they fabricate handlers), and
		// the tagged Config fields of its config.go.
		if strings.Contains(rel, "internal/server/") && !strings.HasSuffix(rel, "_test.go") {
			for _, m := range reRouteDef.FindAllStringSubmatch(string(src), -1) {
				f.routes[m[1]] = true
			}
			if strings.HasSuffix(rel, "internal/server/config.go") {
				for _, m := range reJSONTag.FindAllStringSubmatch(string(src), -1) {
					f.configKeys[m[1]] = true
					f.serveEnv[m[2]] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// docFiles returns the documentation set: README.md plus docs/*.md.
func docFiles(root string) ([]string, error) {
	files := []string{filepath.Join(root, "README.md")}
	more, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	sort.Strings(more)
	return append(files, more...), nil
}

// docRefs is what one markdown file claims about the serve surface.
type docRefs struct {
	routes     map[string]bool // "METHOD /path" tokens in code regions
	configKeys map[string]bool // first-column keys of "## Configuration" table rows
	envVars    map[string]bool // CUBIE_* tokens in code regions
}

// check verifies every doc reference against the code-side facts and
// returns one "file:line: message" string per stale reference.
func check(root string) ([]string, error) {
	f, err := gather(root)
	if err != nil {
		return nil, err
	}
	files, err := docFiles(root)
	if err != nil {
		return nil, err
	}
	var out []string
	serveRefs := docRefs{
		routes:     map[string]bool{},
		configKeys: map[string]bool{},
		envVars:    map[string]bool{},
	}
	allEnvRefs := map[string]bool{}
	for _, path := range files {
		v, refs, err := checkFile(path, f)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
		for e := range refs.envVars {
			allEnvRefs[e] = true
		}
		if filepath.ToSlash(path) == filepath.ToSlash(filepath.Join(root, serveDoc)) {
			serveRefs = refs
		}
	}

	// Reverse direction for the knob surface: every CUBIE_* variable a
	// non-test .go file reads must be documented somewhere in README.md or
	// docs/ — an env knob shipped without documentation fails the gate just
	// like a documented knob the code dropped.
	for _, e := range sorted(f.codeEnvVars) {
		if !allEnvRefs[e] {
			out = append(out, fmt.Sprintf("%s: environment variable %s is read by the code but not documented in README.md or docs/", root, e))
		}
	}

	// Reverse direction: the serve surface the code registers must be
	// documented in docs/SERVE.md — a route, config key, or CUBIE_* config
	// variable the reference omits fails the gate just like a stale one.
	doc := filepath.Join(root, serveDoc)
	for _, r := range sorted(f.routes) {
		if !serveRefs.routes[r] {
			out = append(out, fmt.Sprintf("%s: registered route %q is not documented", doc, r))
		}
	}
	for _, k := range sorted(f.configKeys) {
		if !serveRefs.configKeys[k] {
			out = append(out, fmt.Sprintf("%s: config key %q (internal/server/config.go) is not in the Configuration table", doc, k))
		}
	}
	for _, e := range sorted(f.serveEnv) {
		if !serveRefs.envVars[e] {
			out = append(out, fmt.Sprintf("%s: environment variable %s (internal/server/config.go) is not documented", doc, e))
		}
	}
	return out, nil
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkFile scans one markdown file. Only code-marked regions are
// inspected: the interior of ``` fences, and inline backtick spans. It
// returns the violations plus the serve-surface references the file makes
// (for the reverse checks).
func checkFile(path string, f *facts) ([]string, docRefs, error) {
	refs := docRefs{
		routes:     map[string]bool{},
		configKeys: map[string]bool{},
		envVars:    map[string]bool{},
	}
	file, err := os.Open(path)
	if err != nil {
		return nil, refs, err
	}
	defer file.Close()

	var out []string
	inFence := false
	inConfigSection := false
	lineNo := 0
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.HasPrefix(line, "## ") && !inFence {
			inConfigSection = strings.TrimSpace(line) == "## Configuration"
		}
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		// Configuration-table keys: the first backticked column of table
		// rows under "## Configuration" documents one config-file key.
		if inConfigSection && !inFence {
			if m := reConfigKey.FindStringSubmatch(line); m != nil {
				refs.configKeys[m[1]] = true
				if len(f.configKeys) > 0 && !f.configKeys[m[1]] {
					out = append(out, fmt.Sprintf("%s:%d: config key %q is not a field of internal/server/config.go", path, lineNo, m[1]))
				}
			}
		}
		var region string
		if inFence {
			region = line
		} else {
			for _, m := range reSpan.FindAllStringSubmatch(line, -1) {
				region += m[1] + " "
			}
		}
		if region == "" {
			continue
		}
		for _, m := range reFlagRef.FindAllStringSubmatch(region, -1) {
			if !f.flags[m[1]] {
				out = append(out, fmt.Sprintf("%s:%d: flag --%s is not defined by any command", path, lineNo, m[1]))
			}
		}
		for _, m := range reMakeRef.FindAllStringSubmatch(region, -1) {
			if !f.makeTargets[m[1]] {
				out = append(out, fmt.Sprintf("%s:%d: make target %q is not in the Makefile", path, lineNo, m[1]))
			}
		}
		for _, m := range reEnvRef.FindAllString(region, -1) {
			refs.envVars[m] = true
			if !f.envVars[m] {
				out = append(out, fmt.Sprintf("%s:%d: environment variable %s is not read by any .go file", path, lineNo, m))
			}
		}
		for _, m := range reRouteRef.FindAllStringSubmatch(region, -1) {
			route := m[1] + " " + m[2]
			refs.routes[route] = true
			if len(f.routes) > 0 && !f.routes[route] {
				out = append(out, fmt.Sprintf("%s:%d: route %q is not registered by internal/server", path, lineNo, route))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, refs, err
	}
	return out, refs, nil
}
