package graph_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels/bfs"
)

// synthDigestFile pins the bits of every synthesized graph the campaign
// reads: the five Table 3 CSRs, their BFS-order relabelings (the BFS
// workload's and the bfs-relabel ablation's input), and the Figure 10a
// feature matrix of `cubie all`'s corpus (199 graphs, seed 1). Regenerate
// it with
//
//	go test ./internal/graph -run TestSynthDigest -update
//
// only when a change is meant to move those bits.
const synthDigestFile = "testdata/synth.sha256"

var updateDigests = flag.Bool("update", false, "rewrite testdata/synth.sha256 from the current synthesis")

// Figure 10a's corpus as `cubie all` renders it.
const (
	digestCorpusSize = 199
	digestCorpusSeed = 1
)

func hashGraph(g *graph.Graph) []byte {
	h := sha256.New()
	putU64(h, uint64(g.N))
	for _, o := range g.Offsets {
		putU64(h, uint64(o))
	}
	var b [4]byte
	for _, u := range g.Neighbors {
		binary.LittleEndian.PutUint32(b[:], uint32(u))
		h.Write(b[:])
	}
	return h.Sum(nil)
}

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// synthDigests computes every pinned digest in file order.
func synthDigests(t *testing.T) [][2]string {
	t.Helper()
	var out [][2]string
	for _, d := range graph.Table3() {
		g, err := graph.Synthesize(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		rl, _ := bfs.Relabel(g, bfs.Hub(g))
		out = append(out,
			[2]string{"table3/" + d.Name, hex.EncodeToString(hashGraph(g))},
			[2]string{"relabel/" + d.Name, hex.EncodeToString(hashGraph(rl))})
	}
	h := sha256.New()
	for _, g := range graph.Corpus(digestCorpusSize, digestCorpusSeed) {
		for _, v := range graph.ExtractFeatures(g).Vector() {
			putU64(h, math.Float64bits(v))
		}
	}
	out = append(out, [2]string{
		fmt.Sprintf("corpus-features/%d/%d", digestCorpusSize, digestCorpusSeed),
		hex.EncodeToString(h.Sum(nil)),
	})
	return out
}

// TestSynthDigest checks graph synthesis, relabeling and feature
// extraction against the committed digests, so a change every route makes
// alike still fails.
func TestSynthDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 and corpus synthesis in -short mode")
	}
	got := synthDigests(t)
	if *updateDigests {
		var sb strings.Builder
		for _, e := range got {
			fmt.Fprintf(&sb, "%s  %s\n", e[1], e[0])
		}
		if err := os.WriteFile(synthDigestFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t, synthDigestFile)
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, synthesis produces %d", synthDigestFile, len(want), len(got))
	}
	for _, e := range got {
		w, ok := want[e[0]]
		switch {
		case !ok:
			t.Errorf("%s: no committed digest", e[0])
		case w != e[1]:
			t.Errorf("%s: digest %s, committed %s", e[0], e[1], w)
		}
	}
}

// readDigests parses sha256sum's "<hex>  <name>" layout.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 || len(fields[0]) != 2*sha256.Size {
			t.Fatalf("%s:%d: want \"<sha256>  <name>\"", path, line)
		}
		out[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
