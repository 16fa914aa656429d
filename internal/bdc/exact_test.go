package bdc

// Exactness pins for generation: bodyCounts against the reference
// implementation it replaced, and SHA-256 digests of generated cell
// sets, so a faster generator provably emits the same bytes.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"leodivide/internal/demand"
)

// bodyQuantile is the reference body quantile function at q in [0,1],
// interpolating log-linearly between anchors.
func (c GenConfig) bodyQuantile(q float64) float64 {
	a := c.BodyAnchors
	if q <= 0 {
		return a[0].Locations
	}
	if q >= 1 {
		return a[len(a)-1].Locations
	}
	i := sort.Search(len(a), func(i int) bool { return a[i].Q > q }) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(a)-1 {
		i = len(a) - 2
	}
	lo, hi := a[i], a[i+1]
	t := (q - lo.Q) / (hi.Q - lo.Q)
	return math.Exp(math.Log(lo.Locations) + t*(math.Log(hi.Locations)-math.Log(lo.Locations)))
}

// referenceBodyCounts is bodyCounts as first written: every probe of
// the search materializes its counts and evaluates bodyQuantile from
// scratch per cell. bodyCounts must agree with it exactly.
func referenceBodyCounts(c GenConfig, target int) []int {
	// The sum over N midpoint-quantile draws grows monotonically with N;
	// binary-search N, then trim the residual on mid-ranked cells.
	sumFor := func(n int) (int, []int) {
		counts := make([]int, n)
		s := 0
		for k := 0; k < n; k++ {
			v := int(math.Round(c.bodyQuantile((float64(k) + 0.5) / float64(n))))
			if v < 1 {
				v = 1
			}
			counts[k] = v
			s += v
		}
		return s, counts
	}
	lo, hi := 1, 16
	for {
		s, _ := sumFor(hi)
		if s >= target {
			break
		}
		lo = hi
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		s, _ := sumFor(mid)
		if s < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	sum, counts := sumFor(lo)
	// Trim the residual by decrementing (or incrementing) cells spread
	// across the ranks, preserving the anchored quantiles. The stride is
	// chosen co-prime with n so every cell is eventually visited, and a
	// full no-progress cycle terminates the loop (possible only when the
	// target is smaller than the smallest achievable sum).
	residual := sum - target
	n := len(counts)
	step := 7
	for n > 0 && gcd(step, n) != 1 {
		step++
	}
	idx := n / 4
	sinceProgress := 0
	for residual != 0 && n > 0 && sinceProgress < n {
		i := idx % n
		switch {
		case residual > 0 && counts[i] > 1:
			counts[i]--
			residual--
			sinceProgress = 0
		case residual < 0:
			counts[i]++
			residual++
			sinceProgress = 0
		default:
			sinceProgress++
		}
		idx += step
	}
	sort.Ints(counts)
	return counts
}

// scaledConfig mirrors the US region's scaling of the default
// configuration: total and peaks shrink by scale, peaks stay >= 1.
func scaledConfig(seed int64, scale float64) GenConfig {
	cfg := DefaultGenConfig()
	cfg.Seed = seed
	if scale < 1 {
		cfg.TotalLocations = int(float64(cfg.TotalLocations) * scale)
		peaks := slices.Clone(cfg.Peaks)
		for i := range peaks {
			peaks[i].Locations = max(1, int(float64(peaks[i].Locations)*scale))
		}
		cfg.Peaks = peaks
	}
	return cfg
}

func bodyTarget(cfg GenConfig) int {
	target := cfg.TotalLocations
	for _, p := range cfg.Peaks {
		target -= p.Locations
	}
	return target
}

func TestBodyCountsMatchReferenceDefault(t *testing.T) {
	for _, scale := range []float64{0.02, 0.05, 0.25, 1} {
		cfg := scaledConfig(1, scale)
		target := bodyTarget(cfg)
		if got, want := cfg.bodyCounts(target), referenceBodyCounts(cfg, target); !slices.Equal(got, want) {
			t.Errorf("scale %v: bodyCounts(%d) differs from the reference (%d vs %d cells)", scale, target, len(got), len(want))
		}
	}
}

// TestBodyCountsMatchReferenceRandom draws random valid anchor sets
// (sub-unit anchors exercise the floor at 1) and targets.
func TestBodyCountsMatchReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		qs := []float64{0, 1}
		for len(qs) < n {
			q := rng.Float64()
			if q > 0 && !slices.Contains(qs, q) {
				qs = append(qs, q)
			}
		}
		sort.Float64s(qs)
		locs := make([]float64, n)
		for i := range locs {
			locs[i] = rng.ExpFloat64() * 200
		}
		sort.Float64s(locs)
		cfg := DefaultGenConfig()
		cfg.BodyAnchors = make([]QuantileAnchor, n)
		for i := range qs {
			cfg.BodyAnchors[i] = QuantileAnchor{Q: qs[i], Locations: locs[i]}
		}
		cfg.TotalLocations = 1 + rng.Intn(300000)
		cfg.Peaks = nil
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: invalid anchors: %v", trial, err)
		}
		target := cfg.TotalLocations
		if got, want := cfg.bodyCounts(target), referenceBodyCounts(cfg, target); !slices.Equal(got, want) {
			t.Fatalf("trial %d: bodyCounts(%d) over %+v differs from the reference", trial, target, cfg.BodyAnchors)
		}
	}
}

// hashCells digests every field of every cell, floats by their bits.
func hashCells(cells []demand.Cell) string {
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%d|%d|%s|%x|%x\n", c.ID, c.Locations, c.CountyFIPS,
			math.Float64bits(c.Center.Lat), math.Float64bits(c.Center.Lng))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateCellsDigests pins the generated cells byte for byte at a
// few seed × scale pairs. A digest changes only with an intentional
// generation change, which also moves the golden corpus.
func TestGenerateCellsDigests(t *testing.T) {
	pins := []struct {
		seed  int64
		scale float64
		cells int
		sha   string
	}{
		{1, 0.05, 1358, "03e92d1e6a8f38256f7ec4dc561fb9889e45a8b47e77226cac68015333bfcfd8"},
		{2, 0.25, 6766, "4b0077ed01dbaf8f3b5b854c2e910c5ed32778cee03c7e30a32d3ac4226e8264"},
		{99, 0.02, 547, "032d4bd52917e2f82d4b0997cff301629ecc1f5379b825b7b52c6a357b8e5a71"},
		{1, 1, 27047, "17d614ab14a7a329d75008121d14da97890ba0d659ce408417f41394f1578716"},
		{7, 1, 27047, "cb89aef37a230dc501cdacc42cb807a69e49da06d6f1da6cb34398310f15b037"},
	}
	for _, p := range pins {
		if p.scale == 1 && testing.Short() {
			continue
		}
		cells, err := GenerateCells(context.Background(), scaledConfig(p.seed, p.scale))
		if err != nil {
			t.Fatal(err)
		}
		if got := hashCells(cells); len(cells) != p.cells || got != p.sha {
			t.Errorf("seed %d scale %v: %d cells, sha256 %s; want %d cells, %s", p.seed, p.scale, len(cells), got, p.cells, p.sha)
		}
	}
}
