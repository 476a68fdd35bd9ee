package main

// The campaign workloads run `cubie all` as a subprocess, the way a user
// reproduces the paper. campaign-cold starts every sample from an empty run
// cache, so every compute layer runs. campaign-warm re-renders from a cache
// one cold run filled: it executes nothing, so it isolates run-cache reads
// and the render work that is never cached, and it is the control that
// must not move when a compute layer gets faster.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// launches is how often campaign-cold's set-up launches cubie; a launch
// takes a few milliseconds, so setup_s is the median of several.
const launches = 7

// warmSetups is how often a warm workload repeats its set-up: a fresh copy
// of the kept fill and an untimed warm-up sample, about 2.5 s.
const warmSetups = 2

func (b *bench) measureCampaignCold() error {
	// Set-up: launch the binary on a figure that needs no runs, which pages
	// it in and pays package init; a sample then measures the campaign.
	err := b.setUp(launches, func() error {
		b.attempted++
		out, _, _, err := b.runCubie("off", "suite")
		if err == nil {
			err = b.golden.check("suite", out)
		}
		return err
	})
	if err != nil {
		return err
	}
	b.repeat(b.budget, func() (time.Duration, bool) {
		dir, d, rss, err := b.fill()
		os.RemoveAll(dir)
		if !b.check(err) {
			return 0, false
		}
		b.rssMB = append(b.rssMB, rss)
		return d, true
	})
	return nil
}

func (b *bench) tracedCampaignCold(tr *tracer, parent span) (time.Duration, error) {
	sp := tr.begin(parent, "campaign", "cubie all (cold)")
	dir, d, _, err := b.fill()
	sp.end()
	if err != nil {
		os.RemoveAll(dir)
		return 0, err
	}
	if b.filled != "" {
		os.RemoveAll(b.filled)
	}
	b.filled = dir // the replay reads this cache
	return d, nil
}

func (b *bench) measureCampaignWarm() error {
	err := b.setUpWarm(func() error {
		_, _, err := b.campaign(b.filled)
		return err
	})
	if err != nil {
		return err
	}
	b.repeat(b.budget, func() (time.Duration, bool) {
		d, rss, err := b.campaign(b.filled)
		if !b.check(err) {
			return 0, false
		}
		b.rssMB = append(b.rssMB, rss)
		return d, true
	})
	return nil
}

func (b *bench) tracedCampaignWarm(tr *tracer, parent span) (time.Duration, error) {
	sp := tr.begin(parent, "campaign", "cubie all (warm)")
	d, _, err := b.campaign(b.filled)
	sp.end()
	return d, err
}

// campaign runs `cubie all` on the given run cache and checks its stdout.
func (b *bench) campaign(cache string) (time.Duration, float64, error) {
	b.attempted++
	out, d, rss, err := b.runCubie(cache, "all")
	if err == nil {
		err = b.golden.check("all", out)
	}
	return d, rss, err
}

// fill runs one campaign on a fresh, empty run cache and returns the cache
// directory, now filled. It is a campaign-cold sample.
func (b *bench) fill() (string, time.Duration, float64, error) {
	dir, err := os.MkdirTemp(b.dir, "cache-")
	if err != nil {
		return "", 0, 0, err
	}
	d, rss, err := b.campaign(dir)
	return dir, d, rss, err
}

// setUpWarm is the set-up of the workloads that start warm: a fresh copy of
// the kept fill, then warmUp, an untimed sample on it that pages in the
// binary and the cache. The kept fill is made, at most once per checkout,
// before the timed set-ups.
func (b *bench) setUpWarm(warmUp func() error) error {
	if _, err := b.keptFill(); err != nil {
		return err
	}
	return b.setUp(warmSetups, func() error {
		if err := b.warmCopy(); err != nil {
			return err
		}
		return warmUp()
	})
}

// warmCopy replaces b.filled with a fresh copy of the kept fill. Each run
// works on its own copy, so nothing a run writes reaches the next.
func (b *bench) warmCopy() error {
	src, err := b.keptFill()
	if err != nil {
		return err
	}
	if b.filled != "" {
		os.RemoveAll(b.filled)
		b.filled = ""
	}
	dir, err := os.MkdirTemp(b.dir, "warm-")
	if err != nil {
		return err
	}
	b.filled = dir // removed with b.dir if the copy fails
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// keptFill returns a run cache that one cold `cubie all` of this cubie
// binary filled. The first run in a checkout that needs it makes it, once
// per binary, and keeps it under out/fill for later runs, as it keeps the
// build. The fill is a checked campaign-cold sample outside every metric.
func (b *bench) keptFill() (string, error) {
	if b.kept != "" {
		return b.kept, nil
	}
	sum, err := fileDigest(b.cubie)
	if err != nil {
		return "", err
	}
	kept := filepath.Join(b.out, "fill", sum)
	if _, err := os.Stat(kept); err == nil {
		b.kept = kept
		return kept, nil
	}
	dir, _, _, err := b.fill()
	if err != nil {
		return "", fmt.Errorf("fill: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(kept), 0o755); err != nil {
		return "", err
	}
	if err := os.Rename(dir, kept); err != nil {
		return "", fmt.Errorf("keep fill: %w", err)
	}
	b.kept = kept
	return kept, nil
}

// fileDigest returns the hex SHA-256 of a file.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("digest %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyFile copies the regular file src to a new file dst.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	return out.Close()
}
