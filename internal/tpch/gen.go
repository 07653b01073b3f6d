// Package tpch implements the TPC-H workload of §8: a deterministic dbgen
// clone producing all eight tables at any scale factor, the 22 benchmark
// queries expressed as logical plans, and the RF1/RF2 refresh functions used
// by the update-impact experiment. The generator follows dbgen's value
// domains and correlations (dates, priorities, the partsupp supplier
// formula, comment grammar) with dense surrogate keys.
package tpch

import (
	"fmt"
	"math/rand"
	"strings"

	"vectorh/internal/rewriter"
	"vectorh/internal/vector"
)

// Scale factors: rows per table at SF=1.
const (
	SupplierPerSF = 10_000
	CustomerPerSF = 150_000
	PartPerSF     = 200_000
	OrdersPerSF   = 1_500_000
)

// Schemas of the eight TPC-H tables.
var (
	RegionSchema = vector.Schema{
		{Name: "r_regionkey", Type: vector.TInt64},
		{Name: "r_name", Type: vector.TString},
		{Name: "r_comment", Type: vector.TString},
	}
	NationSchema = vector.Schema{
		{Name: "n_nationkey", Type: vector.TInt64},
		{Name: "n_name", Type: vector.TString},
		{Name: "n_regionkey", Type: vector.TInt64},
		{Name: "n_comment", Type: vector.TString},
	}
	SupplierSchema = vector.Schema{
		{Name: "s_suppkey", Type: vector.TInt64},
		{Name: "s_name", Type: vector.TString},
		{Name: "s_address", Type: vector.TString},
		{Name: "s_nationkey", Type: vector.TInt64},
		{Name: "s_phone", Type: vector.TString},
		{Name: "s_acctbal", Type: vector.TDecimal},
		{Name: "s_comment", Type: vector.TString},
	}
	CustomerSchema = vector.Schema{
		{Name: "c_custkey", Type: vector.TInt64},
		{Name: "c_name", Type: vector.TString},
		{Name: "c_address", Type: vector.TString},
		{Name: "c_nationkey", Type: vector.TInt64},
		{Name: "c_phone", Type: vector.TString},
		{Name: "c_acctbal", Type: vector.TDecimal},
		{Name: "c_mktsegment", Type: vector.TString},
		{Name: "c_comment", Type: vector.TString},
	}
	PartSchema = vector.Schema{
		{Name: "p_partkey", Type: vector.TInt64},
		{Name: "p_name", Type: vector.TString},
		{Name: "p_mfgr", Type: vector.TString},
		{Name: "p_brand", Type: vector.TString},
		{Name: "p_type", Type: vector.TString},
		{Name: "p_size", Type: vector.TInt32},
		{Name: "p_container", Type: vector.TString},
		{Name: "p_retailprice", Type: vector.TDecimal},
		{Name: "p_comment", Type: vector.TString},
	}
	PartSuppSchema = vector.Schema{
		{Name: "ps_partkey", Type: vector.TInt64},
		{Name: "ps_suppkey", Type: vector.TInt64},
		{Name: "ps_availqty", Type: vector.TInt32},
		{Name: "ps_supplycost", Type: vector.TDecimal},
		{Name: "ps_comment", Type: vector.TString},
	}
	OrdersSchema = vector.Schema{
		{Name: "o_orderkey", Type: vector.TInt64},
		{Name: "o_custkey", Type: vector.TInt64},
		{Name: "o_orderstatus", Type: vector.TString},
		{Name: "o_totalprice", Type: vector.TDecimal},
		{Name: "o_orderdate", Type: vector.TDate},
		{Name: "o_orderpriority", Type: vector.TString},
		{Name: "o_clerk", Type: vector.TString},
		{Name: "o_shippriority", Type: vector.TInt32},
		{Name: "o_comment", Type: vector.TString},
	}
	LineitemSchema = vector.Schema{
		{Name: "l_orderkey", Type: vector.TInt64},
		{Name: "l_partkey", Type: vector.TInt64},
		{Name: "l_suppkey", Type: vector.TInt64},
		{Name: "l_linenumber", Type: vector.TInt32},
		{Name: "l_quantity", Type: vector.TDecimal},
		{Name: "l_extendedprice", Type: vector.TDecimal},
		{Name: "l_discount", Type: vector.TDecimal},
		{Name: "l_tax", Type: vector.TDecimal},
		{Name: "l_returnflag", Type: vector.TString},
		{Name: "l_linestatus", Type: vector.TString},
		{Name: "l_shipdate", Type: vector.TDate},
		{Name: "l_commitdate", Type: vector.TDate},
		{Name: "l_receiptdate", Type: vector.TDate},
		{Name: "l_shipinstruct", Type: vector.TString},
		{Name: "l_shipmode", Type: vector.TString},
		{Name: "l_comment", Type: vector.TString},
	}
)

// Value domains from the TPC-H specification.
var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	instructs    = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipmodes    = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	types1       = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	types2       = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	types3       = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containers1  = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2  = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	colors       = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
		"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
		"chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
		"dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
		"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
		"hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
		"lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
		"midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
		"orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
		"puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
		"sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
		"steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white",
		"yellow",
	}
	words = []string{
		"furiously", "carefully", "quickly", "blithely", "slyly", "ideas", "deposits",
		"accounts", "packages", "requests", "instructions", "theodolites", "platelets",
		"excuses", "foxes", "pearls", "sleep", "wake", "haggle", "nag", "final",
		"regular", "express", "special", "pending", "bold", "ironic", "even", "silent",
		"unusual", "against", "above", "along", "around", "across",
	}
)

// StartDate and EndDate bound o_orderdate per the spec.
var (
	StartDate = vector.MustDate("1992-01-01")
	EndDate   = vector.MustDate("1998-08-02")
)

// Data holds one generated database as dense batches per table.
type Data struct {
	SF     float64
	Tables map[string]*vector.Batch
}

// rowsAt scales a per-SF cardinality.
func rowsAt(perSF int, sf float64) int {
	n := int(float64(perSF) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

func comment(rng *rand.Rand, nwords int) string {
	var sb strings.Builder
	for i := 0; i < nwords; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(words[rng.Intn(len(words))])
	}
	return sb.String()
}

func phone(rng *rand.Rand, nation int64) string {
	return fmt.Sprintf("%d-%03d-%03d-%04d", 10+nation, rng.Intn(900)+100, rng.Intn(900)+100, rng.Intn(9000)+1000)
}

// Generate produces a complete deterministic database at the given scale
// factor and seed.
func Generate(sf float64, seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	d := &Data{SF: sf, Tables: make(map[string]*vector.Batch)}

	// region
	rb := vector.NewBatchForSchema(RegionSchema, len(regionNames))
	for i, name := range regionNames {
		rb.AppendRow(int64(i), name, comment(rng, 6))
	}
	d.Tables["region"] = rb

	// nation
	nb := vector.NewBatchForSchema(NationSchema, len(nationNames))
	for i, name := range nationNames {
		nb.AppendRow(int64(i), name, nationRegion[i], comment(rng, 8))
	}
	d.Tables["nation"] = nb

	// supplier
	nSupp := rowsAt(SupplierPerSF, sf)
	sb := vector.NewBatchForSchema(SupplierSchema, nSupp)
	for i := 1; i <= nSupp; i++ {
		nation := int64(rng.Intn(25))
		cmt := comment(rng, 10)
		if i%20 == 7 { // Q16's excluded suppliers
			cmt = "Customer " + comment(rng, 3) + " Complaints " + comment(rng, 2)
		}
		sb.AppendRow(int64(i), fmt.Sprintf("Supplier#%09d", i), comment(rng, 3), nation,
			phone(rng, nation), int64(rng.Intn(1100000)-100000), cmt)
	}
	d.Tables["supplier"] = sb

	// customer
	nCust := rowsAt(CustomerPerSF, sf)
	cb := vector.NewBatchForSchema(CustomerSchema, nCust)
	for i := 1; i <= nCust; i++ {
		nation := int64(rng.Intn(25))
		cb.AppendRow(int64(i), fmt.Sprintf("Customer#%09d", i), comment(rng, 3), nation,
			phone(rng, nation), int64(rng.Intn(1100000)-100000),
			segments[rng.Intn(len(segments))], comment(rng, 12))
	}
	d.Tables["customer"] = cb

	// part
	nPart := rowsAt(PartPerSF, sf)
	pb := vector.NewBatchForSchema(PartSchema, nPart)
	for i := 1; i <= nPart; i++ {
		name := colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))] + " " +
			colors[rng.Intn(len(colors))] + " " + colors[rng.Intn(len(colors))] + " " +
			colors[rng.Intn(len(colors))]
		m := rng.Intn(5) + 1
		n := rng.Intn(5) + 1
		ptype := types1[rng.Intn(len(types1))] + " " + types2[rng.Intn(len(types2))] + " " + types3[rng.Intn(len(types3))]
		container := containers1[rng.Intn(len(containers1))] + " " + containers2[rng.Intn(len(containers2))]
		retail := int64(90000 + ((i / 10) % 20001) + 100*(i%1000))
		pb.AppendRow(int64(i), name, fmt.Sprintf("Manufacturer#%d", m),
			fmt.Sprintf("Brand#%d%d", m, n), ptype, int32(rng.Intn(50)+1), container,
			retail, comment(rng, 5))
	}
	d.Tables["part"] = pb

	// partsupp: 4 suppliers per part via the spec's formula.
	ps := vector.NewBatchForSchema(PartSuppSchema, nPart*4)
	for i := 1; i <= nPart; i++ {
		for j := 0; j < 4; j++ {
			supp := (int64(i)+int64(j)*(int64(nSupp)/4+(int64(i)-1)/int64(nSupp)))%int64(nSupp) + 1
			ps.AppendRow(int64(i), supp, int32(rng.Intn(9999)+1),
				int64(rng.Intn(100000)+100), comment(rng, 8))
		}
	}
	d.Tables["partsupp"] = ps

	// orders + lineitem
	nOrd := rowsAt(OrdersPerSF, sf)
	ob := vector.NewBatchForSchema(OrdersSchema, nOrd)
	lb := vector.NewBatchForSchema(LineitemSchema, nOrd*4)
	dateRange := int(EndDate - StartDate)
	cutoff := vector.MustDate("1995-06-17")
	for o := 1; o <= nOrd; o++ {
		// Order dates correlate with the key (time-ordered warehouse),
		// which combined with clustering makes MinMax skipping effective,
		// as in the paper's micro-benchmarks.
		odate := StartDate + int32((o*dateRange)/nOrd) + int32(rng.Intn(15)) - 7
		if odate < StartDate {
			odate = StartDate
		}
		if odate > EndDate {
			odate = EndDate
		}
		cust := int64(rng.Intn(nCust) + 1)
		nlines := rng.Intn(7) + 1
		var total int64
		allF, allO := true, true
		for l := 1; l <= nlines; l++ {
			part := int64(rng.Intn(nPart) + 1)
			supp := (part+int64(rng.Intn(4))*(int64(nSupp)/4+(part-1)/int64(nSupp)))%int64(nSupp) + 1
			qty := int64(rng.Intn(50) + 1)
			extprice := qty * (90000 + part%100000) / 10
			disc := int64(rng.Intn(11)) // 0.00 .. 0.10
			tax := int64(rng.Intn(9))   // 0.00 .. 0.08
			ship := odate + int32(rng.Intn(121)+1)
			commit := odate + int32(rng.Intn(61)+30)
			receipt := ship + int32(rng.Intn(30)+1)
			rf := "N"
			if receipt <= cutoff {
				if rng.Intn(2) == 0 {
					rf = "R"
				} else {
					rf = "A"
				}
			}
			ls := "O"
			if ship <= cutoff {
				ls = "F"
			}
			if ls == "F" {
				allO = false
			} else {
				allF = false
			}
			total += extprice
			lb.AppendRow(int64(o), part, supp, int32(l), qty*100, extprice, disc, tax,
				rf, ls, ship, commit, receipt,
				instructs[rng.Intn(len(instructs))], shipmodes[rng.Intn(len(shipmodes))],
				comment(rng, 4))
		}
		status := "P"
		if allF {
			status = "F"
		} else if allO {
			status = "O"
		}
		ob.AppendRow(int64(o), cust, status, total, odate,
			priorities[rng.Intn(len(priorities))],
			fmt.Sprintf("Clerk#%09d", rng.Intn(1000)+1), int32(0), comment(rng, 6))
	}
	d.Tables["orders"] = ob
	d.Tables["lineitem"] = lb
	return d
}

// DDL returns the paper's §8 physical design for every table: lineitem and
// orders partitioned and clustered on the orderkey, part/partsupp
// co-partitioned on the partkey, customer partitioned on custkey, and the
// small tables replicated.
func DDL(partitions int) []rewriter.TableInfo {
	if partitions <= 0 {
		partitions = 12
	}
	return []rewriter.TableInfo{
		{Name: "region", Schema: RegionSchema},
		{Name: "nation", Schema: NationSchema},
		{Name: "supplier", Schema: SupplierSchema},
		{Name: "customer", Schema: CustomerSchema,
			PartitionKey: "c_custkey", Partitions: partitions},
		{Name: "part", Schema: PartSchema,
			PartitionKey: "p_partkey", Partitions: partitions, ClusteredOn: "p_partkey"},
		{Name: "partsupp", Schema: PartSuppSchema,
			PartitionKey: "ps_partkey", Partitions: partitions, ClusteredOn: "ps_partkey"},
		{Name: "orders", Schema: OrdersSchema,
			PartitionKey: "o_orderkey", Partitions: partitions, ClusteredOn: "o_orderkey"},
		{Name: "lineitem", Schema: LineitemSchema,
			PartitionKey: "l_orderkey", Partitions: partitions, ClusteredOn: "l_orderkey"},
	}
}

// RF1 generates `count` new orders (with lineitems) for the insert refresh
// function; keys start above the existing key space.
func RF1(d *Data, count int, seed int64) (orders, lineitems *vector.Batch) {
	rng := rand.New(rand.NewSource(seed))
	base := int64(d.Tables["orders"].Len()) + 1_000_000
	nCust := d.Tables["customer"].Len()
	nPart := d.Tables["part"].Len()
	nSupp := d.Tables["supplier"].Len()
	ob := vector.NewBatchForSchema(OrdersSchema, count)
	lb := vector.NewBatchForSchema(LineitemSchema, count*4)
	for i := 0; i < count; i++ {
		o := base + int64(i)
		odate := StartDate + int32(rng.Intn(int(EndDate-StartDate)))
		nlines := rng.Intn(7) + 1
		var total int64
		for l := 1; l <= nlines; l++ {
			part := int64(rng.Intn(nPart) + 1)
			supp := int64(rng.Intn(nSupp) + 1)
			qty := int64(rng.Intn(50) + 1)
			extprice := qty * (90000 + part%100000) / 10
			total += extprice
			ship := odate + int32(rng.Intn(121)+1)
			lb.AppendRow(o, part, supp, int32(l), qty*100, extprice,
				int64(rng.Intn(11)), int64(rng.Intn(9)), "N", "O",
				ship, odate+int32(rng.Intn(61)+30), ship+int32(rng.Intn(30)+1),
				instructs[rng.Intn(len(instructs))], shipmodes[rng.Intn(len(shipmodes))],
				comment(rng, 4))
		}
		ob.AppendRow(o, int64(rng.Intn(nCust)+1), "O", total, odate,
			priorities[rng.Intn(len(priorities))],
			fmt.Sprintf("Clerk#%09d", rng.Intn(1000)+1), int32(0), comment(rng, 6))
	}
	return ob, lb
}

// RF2Keys picks `count` existing order keys for the delete refresh function.
func RF2Keys(d *Data, count int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	n := d.Tables["orders"].Len()
	keys := make([]int64, 0, count)
	seen := map[int64]bool{}
	for len(keys) < count && len(seen) < n {
		k := int64(rng.Intn(n) + 1)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}
