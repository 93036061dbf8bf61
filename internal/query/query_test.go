package query

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/scenarios"
)

func TestParseFull(t *testing.T) {
	t.Parallel()
	q, err := Parse("links where util > 0.9 and loss > 0.01 order by util desc limit 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Entity != Links || len(q.Where) != 2 || q.OrderBy != "util" || !q.Desc || q.Limit != 5 {
		t.Fatalf("parsed = %+v", q)
	}
	if q.Where[1] != (Cond{Field: "loss", Op: OpGt, Value: "0.01"}) {
		t.Fatalf("cond = %+v", q.Where[1])
	}
}

func TestParseMinimal(t *testing.T) {
	t.Parallel()
	q, err := Parse("devices")
	if err != nil {
		t.Fatal(err)
	}
	if q.Entity != Devices || len(q.Where) != 0 || q.Limit != 0 {
		t.Fatalf("parsed = %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{
		"",
		"links where util >",
		"links where",
		"links order by",
		"links limit",
		"links limit x",
		"links garbage trailing here",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestVerifySchema(t *testing.T) {
	t.Parallel()
	ok := Query{Entity: Links, Where: []Cond{{Field: "util", Op: OpGt, Value: "0.5"}}, OrderBy: "loss"}
	if err := Verify(ok); err != nil {
		t.Fatal(err)
	}
	cases := []Query{
		{Entity: "tables"},
		{Entity: Links, Where: []Cond{{Field: "bandwidth_pct", Op: OpGt, Value: "1"}}},
		{Entity: Links, Where: []Cond{{Field: "util", Op: "~~", Value: "1"}}},
		{Entity: Links, OrderBy: "nope"},
		{Entity: Links, Limit: -1},
	}
	for i, q := range cases {
		if err := Verify(q); err == nil {
			t.Errorf("case %d: Verify accepted %+v", i, q)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	t.Parallel()
	src := "services where loss > 0.01 order by loss desc limit 3"
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", q.String(), err)
	}
	if again.String() != q.String() {
		t.Fatalf("round trip changed: %q vs %q", again.String(), q.String())
	}
}

func world(t *testing.T) *netsim.World {
	t.Helper()
	in := (&scenarios.Congestion{}).Build(rand.New(rand.NewSource(1)))
	return in.World
}

func TestExecuteLinksHot(t *testing.T) {
	t.Parallel()
	w := world(t)
	q, _ := Parse("links where util > 1.0 order by util desc limit 3")
	rows, err := Execute(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("congestion world has no hot links?")
	}
	// Ordered descending by util.
	prev := 1e18
	for _, r := range rows {
		u, _ := strconv.ParseFloat(r.Get("util"), 64)
		if u > prev {
			t.Fatal("not sorted desc")
		}
		prev = u
		if u <= 1.0 {
			t.Fatalf("filter leaked: util=%v", u)
		}
	}
}

func TestExecuteDevicesAndServices(t *testing.T) {
	t.Parallel()
	w := world(t)
	w.Net.MutNode("us-east-spine-0").Healthy = false
	w.Invalidate()
	q, _ := Parse("devices where healthy = false")
	rows, err := Execute(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Get("id") != "us-east-spine-0" {
		t.Fatalf("rows = %v", rows)
	}

	q, _ = Parse("services where loss > 0.01 order by loss desc")
	rows, err = Execute(q, w)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r.Get("name") == "bulk-transfer" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bulk-transfer missing from lossy services: %v", rows)
	}
}

func TestExecuteEventsContains(t *testing.T) {
	t.Parallel()
	w := world(t)
	w.Logf("x", netsim.SevCritical, "fatal exception in fastpath packet handler")
	q, _ := Parse("events where message contains fastpath")
	rows, err := Execute(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestExecuteRejectsUnverifiedQuery(t *testing.T) {
	t.Parallel()
	w := world(t)
	if _, err := Execute(Query{Entity: "nope"}, w); err == nil {
		t.Fatal("unknown entity executed")
	}
}

func TestRowAccessors(t *testing.T) {
	t.Parallel()
	r := Row{Fields: []string{"a", "b"}, Values: []string{"1", "2"}}
	if r.Get("b") != "2" || r.Get("zz") != "" {
		t.Fatal("Get broken")
	}
	if r.String() != "a=1 b=2" {
		t.Fatalf("String = %q", r.String())
	}
}

// Property: Parse(q.String()) == q for well-formed random queries, and
// Execute never panics on verified queries.
func TestParsePrintRoundTripProperty(t *testing.T) {
	t.Parallel()
	entities := []Entity{Links, Devices, Services, Events}
	fieldsOf := map[Entity][]string{
		Links:    {"id", "util", "loss", "capacity", "down", "isolated"},
		Devices:  {"id", "kind", "region", "healthy", "isolated"},
		Services: {"name", "demand", "delivered", "loss", "unrouted"},
		Events:   {"node", "severity", "message", "age_min"},
	}
	ops := []Op{OpEq, OpNe, OpGt, OpLt, OpGe, OpLe, OpContains}
	w := world(t)

	check := func(e1, nConds, o1, lim uint8) bool {
		ent := entities[int(e1)%len(entities)]
		fields := fieldsOf[ent]
		q := Query{Entity: ent, Limit: int(lim % 20)}
		for i := 0; i < int(nConds%3); i++ {
			q.Where = append(q.Where, Cond{
				Field: fields[(int(e1)+i)%len(fields)],
				Op:    ops[(int(o1)+i)%len(ops)],
				Value: "0.5",
			})
		}
		if o1%2 == 0 {
			q.OrderBy = fields[int(o1)%len(fields)]
			q.Desc = o1%4 == 0
		}
		if err := Verify(q); err != nil {
			return false
		}
		parsed, err := Parse(q.String())
		if err != nil {
			return false
		}
		if parsed.String() != q.String() {
			return false
		}
		if _, err := Execute(parsed, w); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	_ = strings.TrimSpace("")
}
