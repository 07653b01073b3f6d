package experiments

import "testing"

// TestFig5AblationOrdering asserts the §5 rule ablation as counts: the bytes
// one run of the example query sends between nodes order the configurations
// as the paper's times do — every rule on is cheapest, dropping partial
// aggregation or the replicated build costs some traffic, dropping the local
// join costs more, and dropping every rule the most.
func TestFig5AblationOrdering(t *testing.T) {
	res, err := Fig5Ablation(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	bytes := make(map[string]int64, len(res))
	for _, r := range res {
		bytes[r.Name] = r.RemoteBytes
		t.Logf("%-24s %8d remote bytes", r.Name, r.RemoteBytes)
	}
	all, noPartial, noRepl := bytes["all rules"], bytes["no partial aggregation"], bytes["no replicated build"]
	noLocal, none := bytes["no local join"], bytes["no rules"]
	if !(all <= noPartial && all <= noRepl && noPartial < noLocal && noRepl < noLocal && noLocal <= none) {
		t.Errorf("want all rules ≤ {no partial aggregation, no replicated build} < no local join ≤ no rules, got %v", bytes)
	}
}
