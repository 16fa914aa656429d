package afford

import "leodivide/internal/spectrum"

// The wider plan catalog: the paper's three comparison plans plus the
// other technologies un(der)served households actually face. Each plan
// carries enough detail to ask both of the paper's questions — does it
// meet the federal "reliable broadband" bar at all, and is it
// affordable — because a plan that fails the first question cannot
// close the divide at any price (the GEO-satellite trap).

// LatencyClass buckets a plan's user-plane latency.
type LatencyClass int

const (
	// LowLatency meets the FCC's ≤100 ms bar.
	LowLatency LatencyClass = iota
	// HighLatency does not (geostationary satellite).
	HighLatency
)

// String names the class.
func (l LatencyClass) String() string {
	if l == HighLatency {
		return "high (GEO)"
	}
	return "low"
}

// CatalogPlan is a Plan with qualification metadata.
type CatalogPlan struct {
	Plan
	Technology string
	Latency    LatencyClass
}

// MeetsBenchmark reports whether the plan delivers the FCC reliable
// broadband benchmark (100/20 Mbps and low latency).
func (c CatalogPlan) MeetsBenchmark() bool {
	return c.DownMbps >= spectrum.FCCDownlinkMbps &&
		c.UpMbps >= spectrum.FCCUplinkMbps &&
		c.Latency == LowLatency
}

// Catalog returns the comparison universe: the paper's plans plus the
// incumbent alternatives un(der)served households see marketed.
func Catalog() []CatalogPlan {
	return []CatalogPlan{
		{Plan: StarlinkResidential(), Technology: "LEO satellite", Latency: LowLatency},
		{Plan: Xfinity300(), Technology: "cable", Latency: LowLatency},
		{Plan: SpectrumPremier(), Technology: "cable", Latency: LowLatency},
		{Plan: Plan{Name: "T-Mobile Home Internet", MonthlyUSD: 50, DownMbps: 150, UpMbps: 23},
			Technology: "fixed-wireless (5G)", Latency: LowLatency},
		{Plan: Plan{Name: "HughesNet Select", MonthlyUSD: 50, DownMbps: 50, UpMbps: 5},
			Technology: "GEO satellite", Latency: HighLatency},
		{Plan: Plan{Name: "Viasat Unleashed", MonthlyUSD: 100, DownMbps: 75, UpMbps: 5},
			Technology: "GEO satellite", Latency: HighLatency},
		{Plan: Plan{Name: "Rural DSL (typical)", MonthlyUSD: 45, DownMbps: 25, UpMbps: 3},
			Technology: "dsl", Latency: LowLatency},
	}
}

// CatalogComparison evaluates every catalog plan against the income
// distribution, marking qualification.
type CatalogResult struct {
	CatalogPlan
	// Afford is the affordability evaluation at the share threshold.
	Afford Result
	// Qualifies mirrors MeetsBenchmark for rendering convenience.
	Qualifies bool
}

// EvaluateCatalog runs the full catalog at the share threshold.
func (in *Input) EvaluateCatalog(share float64) []CatalogResult {
	plans := Catalog()
	out := make([]CatalogResult, 0, len(plans))
	for _, p := range plans {
		out = append(out, CatalogResult{
			CatalogPlan: p,
			Afford:      in.Evaluate(p.Plan, nil, share),
			Qualifies:   p.MeetsBenchmark(),
		})
	}
	return out
}
