package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a fake repository for the checker.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const fakeMakefile = ".PHONY: all test\nall: test\n\ntest:\n\tgo test ./...\n\nbench:\n\tgo test -bench=.\n"

const fakeMain = `package main

import "flag"

func main() {
	fs := flag.NewFlagSet("x", flag.ExitOnError)
	fs.String("metrics", "", "")
	fs.Bool("verbose", false, "")
	_ = fs
}
`

const fakeEnvUser = `package par

import "os"

var n = os.Getenv("CUBIE_WORKERS")
`

// TestCheckClean verifies a consistent docs tree produces no violations.
func TestCheckClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile":          fakeMakefile,
		"cmd/tool/main.go":  fakeMain,
		"internal/p/env.go": fakeEnvUser,
		"README.md":         "Use `--metrics` and `make test`.\n\n```sh\ntool --verbose\nmake bench   # CUBIE_WORKERS=2 make bench\n```\n",
		"docs/GUIDE.md":     "Prose mentioning --not-a-flag and make nothing and CUBIE_BOGUS is fine\nwhen it is not inside code markers.\n",
	})
	v, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("clean tree produced violations: %v", v)
	}
}

// TestCheckViolations verifies each reference class is caught, with
// file:line positions.
func TestCheckViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile":          fakeMakefile,
		"cmd/tool/main.go":  fakeMain,
		"internal/p/env.go": fakeEnvUser,
		"README.md":         "Set `CUBIE_WORKERS` to scale out.\n",
		"docs/BAD.md":       "line one\n`tool --bogus-flag`\n\n```\nmake deploy\nCUBIE_TURBO=1 tool\n```\n",
	})
	v, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(v, "\n")
	for _, want := range []string{
		"BAD.md:2: flag --bogus-flag",
		`BAD.md:5: make target "deploy"`,
		"BAD.md:6: environment variable CUBIE_TURBO",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
	if len(v) != 3 {
		t.Errorf("want exactly 3 violations, got %d:\n%s", len(v), joined)
	}
}

// TestCheckRealRepo dogfoods the checker on this repository: the docs the
// PR ships must themselves pass.
func TestCheckRealRepo(t *testing.T) {
	v, err := check("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Errorf("repository docs have stale references:\n%s", strings.Join(v, "\n"))
	}
}

// TestGather pins the fact extraction itself.
func TestGather(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile":          fakeMakefile,
		"cmd/tool/main.go":  fakeMain,
		"internal/p/env.go": fakeEnvUser,
		"README.md":         "ok\n",
	})
	f, err := gather(root)
	if err != nil {
		t.Fatal(err)
	}
	if !f.flags["metrics"] || !f.flags["verbose"] || f.flags["bogus"] {
		t.Errorf("flags = %v", f.flags)
	}
	if !f.makeTargets["test"] || !f.makeTargets["bench"] || f.makeTargets[".PHONY"] {
		t.Errorf("makeTargets = %v", f.makeTargets)
	}
	if !f.envVars["CUBIE_WORKERS"] {
		t.Errorf("envVars = %v", f.envVars)
	}
}

const fakeServer = `package server

func routes(s *Server) {
	s.handle("GET /healthz", nil)
	s.handle("GET /api/v1/things", nil)
	s.handle("POST /api/v1/things", nil)
	s.handle("/", nil)
}
`

const fakeServerConfig = "package server\n\ntype Config struct {\n" +
	"\tAddr string `json:\"addr\" env:\"CUBIE_ADDR\"`\n" +
	"\tLimit int `json:\"limit\" env:\"CUBIE_LIMIT\"`\n" +
	"}\n"

const goodServeDoc = "# API\n\n" +
	"| `GET /healthz` | liveness |\n" +
	"| `GET /api/v1/things` | list |\n" +
	"| `POST /api/v1/things` | create |\n\n" +
	"## Configuration\n\n" +
	"| key | env | default |\n|---|---|---|\n" +
	"| `addr` | `CUBIE_ADDR` | `127.0.0.1:1` |\n" +
	"| `limit` | `CUBIE_LIMIT` | `4` |\n"

// TestServeSurfaceClean: a fully documented serve surface passes in both
// directions.
func TestServeSurfaceClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile":                  fakeMakefile,
		"internal/server/server.go": fakeServer,
		"internal/server/config.go": fakeServerConfig,
		"README.md":                 "ok\n",
		"docs/SERVE.md":             goodServeDoc,
	})
	v, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("clean serve surface produced violations: %v", v)
	}
}

// TestServeSurfaceForward: documented routes and config keys with no code
// counterpart are violations.
func TestServeSurfaceForward(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile":                  fakeMakefile,
		"internal/server/server.go": fakeServer,
		"internal/server/config.go": fakeServerConfig,
		"README.md":                 "ok\n",
		"docs/SERVE.md": goodServeDoc +
			"| `DELETE /api/v1/things` | not real |\n\n" +
			"## Configuration\n\n| `burst` | `CUBIE_LIMIT` | `9` |\n",
	})
	v, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(v, "\n")
	for _, want := range []string{
		`route "DELETE /api/v1/things" is not registered`,
		`config key "burst" is not a field`,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
	if len(v) != 2 {
		t.Errorf("want exactly 2 violations, got %d:\n%s", len(v), joined)
	}
}

// TestServeSurfaceReverse: a registered route, config key, or serve env
// var missing from docs/SERVE.md is a violation — shipping an undocumented
// endpoint fails the gate too.
func TestServeSurfaceReverse(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile":                  fakeMakefile,
		"internal/server/server.go": fakeServer,
		"internal/server/config.go": fakeServerConfig,
		"README.md":                 "Also honours `CUBIE_LIMIT`.\n",
		"docs/SERVE.md": "# API\n\n| `GET /healthz` | liveness |\n" +
			"| `GET /api/v1/things` | list |\n\n" +
			"## Configuration\n\n| `addr` | `CUBIE_ADDR` | `127.0.0.1:1` |\n",
	})
	v, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(v, "\n")
	for _, want := range []string{
		`registered route "POST /api/v1/things" is not documented`,
		`config key "limit" (internal/server/config.go) is not in the Configuration table`,
		"environment variable CUBIE_LIMIT (internal/server/config.go) is not documented",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
	if len(v) != 3 {
		t.Errorf("want exactly 3 violations, got %d:\n%s", len(v), joined)
	}
}

const fakeBenchMain = `package main

import "flag"

func main() {
	flag.String("workload", "", "")
	flag.Int64("seed", 1, "")
}
`

// TestCheckBenchFlags: the benchmark driver's flags (non-test files under
// bench/) count as defined, so a doc may show its command line; a flag
// only a bench test defines, or that nothing defines, is still caught.
func TestCheckBenchFlags(t *testing.T) {
	root := writeTree(t, map[string]string{
		"Makefile":           fakeMakefile,
		"cmd/tool/main.go":   fakeMain,
		"bench/main.go":      fakeBenchMain,
		"bench/main_test.go": "package main\n\nimport \"flag\"\n\nvar _ = flag.Bool(\"only-in-test\", false, \"\")\n",
		"README.md":          "```sh\nbash bench/run.sh --workload campaign-cold --seed 1\n```\n",
		"docs/BAD.md":        "```sh\nbash bench/run.sh --nosuchflag\nbash bench/run.sh --only-in-test\n```\n",
	})
	v, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(v, "\n")
	for _, want := range []string{
		"BAD.md:2: flag --nosuchflag is not defined",
		"BAD.md:3: flag --only-in-test is not defined",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
	if len(v) != 2 {
		t.Errorf("want exactly 2 violations, got %d:\n%s", len(v), joined)
	}
}
