package leodivide

// Dataset-level exactness pins: SHA-256 digests of everything a
// generated dataset exposes downstream — the cells in generation order,
// the distribution's descending order, and the income table — so a
// faster generator provably emits the same dataset, not just the same
// cells.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// datasetDigest hashes the cells (every field, floats by their bits),
// the Distribution's descending order (read through Cell) and
// Incomes.Counties().
func datasetDigest(ds *Dataset) string {
	h := sha256.New()
	for _, c := range wholeCells(ds.Cells) {
		fmt.Fprintf(h, "c|%d|%d|%s|%x|%x\n", c.ID, c.Locations, c.CountyFIPS,
			math.Float64bits(c.Center.Lat), math.Float64bits(c.Center.Lng))
	}
	dist := ds.Distribution()
	for i := 0; i < dist.NumCells(); i++ {
		c := dist.Cell(i)
		fmt.Fprintf(h, "d|%d|%d\n", c.ID, c.Locations)
	}
	for _, r := range ds.Incomes.Counties() {
		fmt.Fprintf(h, "i|%s|%s|%x|%x\n", r.FIPS, r.StateAbbr,
			math.Float64bits(r.MedianHouseholdIncomeUSD), math.Float64bits(r.Weight))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDatasetDigests pins whole generated datasets byte for
// byte per region, seed and scale. A digest changes only with an
// intentional generation change, which also moves the golden corpus.
func TestGenerateDatasetDigests(t *testing.T) {
	pins := []struct {
		region string
		seed   int64
		scale  float64
		sha    string
	}{
		{"us", 1, 0.05, "3a904e4ea34a09bc01ede5a515ed7214403ed9e795038e6b5b271cb321a43181"},
		{"us", 2, 0.05, "4bd3bc1fc91df27c3fb92a71c575f8b5049890bd11e485247d022c349c987955"},
		{"us", 1, 0.25, "be90076a080a34f03fb7132e812ffdbca885fae5ca13837677cd3ced22e1c051"},
		{"us", 2, 0.25, "27a5b6321975659b64d07a86a09a09a9b543e01305bb5735ab8d6c6e22552589"},
		{"us", 1, 1, "41143c5c262dbf20f54e5d780a3d2157d552cbdf4d7d79faf44b92b6f9419caa"},
		{"us", 2, 1, "2b6dc5dece3686ad9889d91173e836b3369b66fd0a784eeab8cc96e20f54dc36"},
		{"brazil-rural", 1, 1, "553dd20cea2b32565472708e3ae71792a56890bf14088553427a8af8a9a66b32"},
		{"brazil-rural", 2, 1, "5d0788f528c466e05e033de204e5d6d3ae41bd6ce0928e01d2423cd80f424d9b"},
		{"taipei-dense", 1, 1, "db91819f86af2bdaafca2b3f452c2b640ef3a8a012bd4e06ef12434d09f26c4b"},
		{"taipei-dense", 2, 1, "d18c029231e7a0236cbb373bbaced8fc066b0f3aefa75f9682dee6859b9c2d69"},
	}
	for _, p := range pins {
		if p.region == "us" && p.scale == 1 && testing.Short() {
			continue
		}
		ds, err := GenerateDataset(context.Background(), WithRegion(p.region),
			WithSeed(p.seed), WithScale(p.scale))
		if err != nil {
			t.Fatalf("%s seed %d scale %v: %v", p.region, p.seed, p.scale, err)
		}
		if got := datasetDigest(ds); got != p.sha {
			t.Errorf("%s seed %d scale %v: sha256 %s; want %s",
				p.region, p.seed, p.scale, got, p.sha)
		}
	}
}
