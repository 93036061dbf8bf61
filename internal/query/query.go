// Package query implements a small structured query language over the
// simulated deployment's telemetry — links, devices, services and log
// events — together with a schema verifier and an executor.
//
// It exists to reproduce §4.4's "verifiable LLM-based tools" research
// direction: LLMs can generate queries, "but we need to verify the
// outputs they generate if we want to use them in an automated
// pipeline". The pipeline built on this package (tools.NLQueryTool) has
// the model translate a natural-language question into this DSL, runs
// the verifier, feeds verification errors back to the model for repair,
// and only executes queries that pass — the text-to-SQL-with-
// consistency-checks loop the paper sketches.
//
// Grammar (one line):
//
//	ENTITY [where FIELD OP VALUE [and FIELD OP VALUE ...]]
//	       [order by FIELD [asc|desc]] [limit N]
//
// e.g. "links where util > 0.9 order by util desc limit 5".
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
)

// Entity is a queryable table.
type Entity string

// Queryable entities.
const (
	Links    Entity = "links"
	Devices  Entity = "devices"
	Services Entity = "services"
	Events   Entity = "events"
)

// schema maps each entity to its queryable fields.
var schema = map[Entity]map[string]bool{
	Links:    {"id": true, "util": true, "loss": true, "capacity": true, "down": true, "isolated": true},
	Devices:  {"id": true, "kind": true, "region": true, "healthy": true, "isolated": true},
	Services: {"name": true, "demand": true, "delivered": true, "loss": true, "unrouted": true},
	Events:   {"node": true, "severity": true, "message": true, "age_min": true},
}

// Op is a comparison operator.
type Op string

// Comparison operators.
const (
	OpEq       Op = "="
	OpNe       Op = "!="
	OpGt       Op = ">"
	OpLt       Op = "<"
	OpGe       Op = ">="
	OpLe       Op = "<="
	OpContains Op = "contains"
)

var validOps = map[Op]bool{OpEq: true, OpNe: true, OpGt: true, OpLt: true, OpGe: true, OpLe: true, OpContains: true}

// Cond is one where-clause condition.
type Cond struct {
	Field string
	Op    Op
	Value string
}

// Query is a parsed, executable query.
type Query struct {
	Entity  Entity
	Where   []Cond
	OrderBy string
	Desc    bool
	Limit   int
}

// String renders the query back to DSL text.
func (q Query) String() string {
	var b strings.Builder
	b.WriteString(string(q.Entity))
	for i, c := range q.Where {
		if i == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "%s %s %s", c.Field, c.Op, c.Value)
	}
	if q.OrderBy != "" {
		fmt.Fprintf(&b, " order by %s", q.OrderBy)
		if q.Desc {
			b.WriteString(" desc")
		} else {
			b.WriteString(" asc")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " limit %d", q.Limit)
	}
	return b.String()
}

// Parse parses DSL text into a Query. Parse is purely syntactic; run
// Verify for schema checks.
func Parse(text string) (Query, error) {
	toks := strings.Fields(strings.ToLower(strings.TrimSpace(text)))
	if len(toks) == 0 {
		return Query{}, fmt.Errorf("query: empty")
	}
	q := Query{Entity: Entity(toks[0])}
	i := 1
	if i < len(toks) && toks[i] == "where" {
		i++
		for {
			if i+2 >= len(toks)+1 && i+2 > len(toks) {
				return Query{}, fmt.Errorf("query: incomplete condition at %q", strings.Join(toks[i:], " "))
			}
			if i+3 > len(toks) {
				return Query{}, fmt.Errorf("query: incomplete condition")
			}
			q.Where = append(q.Where, Cond{Field: toks[i], Op: Op(toks[i+1]), Value: toks[i+2]})
			i += 3
			if i < len(toks) && toks[i] == "and" {
				i++
				continue
			}
			break
		}
	}
	if i+1 < len(toks) && toks[i] == "order" && toks[i+1] == "by" {
		if i+2 >= len(toks) {
			return Query{}, fmt.Errorf("query: order by needs a field")
		}
		q.OrderBy = toks[i+2]
		i += 3
		if i < len(toks) && (toks[i] == "asc" || toks[i] == "desc") {
			q.Desc = toks[i] == "desc"
			i++
		}
	}
	if i < len(toks) && toks[i] == "limit" {
		if i+1 >= len(toks) {
			return Query{}, fmt.Errorf("query: limit needs a number")
		}
		n, err := strconv.Atoi(toks[i+1])
		if err != nil {
			return Query{}, fmt.Errorf("query: bad limit %q", toks[i+1])
		}
		q.Limit = n
		i += 2
	}
	if i != len(toks) {
		return Query{}, fmt.Errorf("query: trailing tokens %q", strings.Join(toks[i:], " "))
	}
	return q, nil
}

// Verify checks the query against the schema: known entity, known
// fields, valid operators, sane limit. This is the consistency check
// that gates LLM-generated queries.
func Verify(q Query) error {
	fields, ok := schema[q.Entity]
	if !ok {
		return fmt.Errorf("query: unknown entity %q (have links, devices, services, events)", q.Entity)
	}
	for _, c := range q.Where {
		if !fields[c.Field] {
			return fmt.Errorf("query: entity %s has no field %q", q.Entity, c.Field)
		}
		if !validOps[c.Op] {
			return fmt.Errorf("query: invalid operator %q", c.Op)
		}
	}
	if q.OrderBy != "" && !fields[q.OrderBy] {
		return fmt.Errorf("query: cannot order %s by unknown field %q", q.Entity, q.OrderBy)
	}
	if q.Limit < 0 || q.Limit > 10000 {
		return fmt.Errorf("query: limit %d out of range", q.Limit)
	}
	return nil
}

// Row is one result row: ordered field/value pairs.
type Row struct {
	Fields []string
	Values []string
}

// Get returns the value of a field in the row ("" if absent).
func (r Row) Get(field string) string {
	for i, f := range r.Fields {
		if f == field {
			return r.Values[i]
		}
	}
	return ""
}

// String renders the row as "k=v k=v".
func (r Row) String() string {
	parts := make([]string, len(r.Fields))
	for i := range r.Fields {
		parts[i] = r.Fields[i] + "=" + r.Values[i]
	}
	return strings.Join(parts, " ")
}

// Execute runs a verified query against the world. Executing an
// unverified query returns Verify's error first.
func Execute(q Query, w *netsim.World) ([]Row, error) {
	if err := Verify(q); err != nil {
		return nil, err
	}
	var rows []Row
	switch q.Entity {
	case Links:
		rep := w.Report()
		for _, l := range w.Net.Links() {
			ls := rep.LinkStat(l.ID)
			rows = append(rows, Row{
				Fields: []string{"id", "util", "loss", "capacity", "down", "isolated"},
				Values: []string{
					string(l.ID), f(ls.Utilization), f(ls.LossRate), f(l.CapacityGbps),
					b(l.Down), b(l.Isolated),
				},
			})
		}
	case Devices:
		for _, nd := range w.Net.Nodes() {
			rows = append(rows, Row{
				Fields: []string{"id", "kind", "region", "healthy", "isolated"},
				Values: []string{string(nd.ID), nd.Kind.String(), nd.Region, b(nd.Healthy), b(nd.Isolated)},
			})
		}
	case Services:
		rep := w.Report()
		names := make([]string, 0, len(rep.ServiceStats))
		for n := range rep.ServiceStats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ss := rep.ServiceStats[n]
			rows = append(rows, Row{
				Fields: []string{"name", "demand", "delivered", "loss", "unrouted"},
				Values: []string{n, f(ss.Demand), f(ss.Delivered), f(ss.LossRate), strconv.Itoa(ss.Unrouted)},
			})
		}
	case Events:
		now := w.Clock.Now()
		for _, e := range w.Events() {
			rows = append(rows, Row{
				Fields: []string{"node", "severity", "message", "age_min"},
				Values: []string{string(e.Node), strings.ToLower(e.Severity.String()), strings.ToLower(e.Message), f((now - e.At).Minutes())},
			})
		}
	}

	out := rows[:0]
	for _, r := range rows {
		keep := true
		for _, c := range q.Where {
			if !match(r.Get(c.Field), c) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, r)
		}
	}
	rows = out

	if q.OrderBy != "" {
		sort.SliceStable(rows, func(i, j int) bool {
			a, bz := rows[i].Get(q.OrderBy), rows[j].Get(q.OrderBy)
			af, aerr := strconv.ParseFloat(a, 64)
			bf, berr := strconv.ParseFloat(bz, 64)
			var less bool
			if aerr == nil && berr == nil {
				less = af < bf
			} else {
				less = a < bz
			}
			if q.Desc {
				return !less && a != bz
			}
			return less
		})
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return rows, nil
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
func b(v bool) string    { return strconv.FormatBool(v) }

func match(val string, c Cond) bool {
	switch c.Op {
	case OpEq:
		return val == c.Value
	case OpNe:
		return val != c.Value
	case OpContains:
		return strings.Contains(val, c.Value)
	}
	av, aerr := strconv.ParseFloat(val, 64)
	bv, berr := strconv.ParseFloat(c.Value, 64)
	if aerr != nil || berr != nil {
		return false
	}
	switch c.Op {
	case OpGt:
		return av > bv
	case OpLt:
		return av < bv
	case OpGe:
		return av >= bv
	case OpLe:
		return av <= bv
	}
	return false
}

var _ = time.Minute
