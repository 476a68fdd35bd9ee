package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
)

// goldenFile holds the committed SHA-256 of `cubie all` stdout (entry
// "all") and of every figure body `cubie all` renders (one entry per
// figure name), in sha256sum's "<hex>  <name>" layout. The same bytes come
// out at GOMAXPROCS=1 and 2; README.md says how to regenerate the file.
const goldenFile = "bench/testdata/golden.sha256"

// golden maps an output name to its expected hex SHA-256.
type golden map[string]string

// loadGolden reads a digest file.
func loadGolden(path string) (golden, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	defer f.Close()
	g := golden{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 || len(fields[0]) != 2*sha256.Size {
			return nil, fmt.Errorf("%s:%d: want \"<sha256>  <name>\"", path, line)
		}
		if _, dup := g[fields[1]]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %q", path, line, fields[1])
		}
		g[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// check reports whether data is the committed output for name.
func (g golden) check(name string, data []byte) error {
	sum := sha256.Sum256(data)
	return g.checkSum(name, sum[:])
}

// checkSum is check for an already computed SHA-256.
func (g golden) checkSum(name string, sum []byte) error {
	want, ok := g[name]
	if !ok {
		return fmt.Errorf("no golden digest for %q", name)
	}
	if got := hex.EncodeToString(sum); got != want {
		return fmt.Errorf("%s: output digest %s, want %s", name, got, want)
	}
	return nil
}
