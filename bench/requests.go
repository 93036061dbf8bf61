package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/gateway"
)

// post creates one incident and checks the record the 201 returns.
func (c *client) post(a arrival) error {
	body, err := json.Marshal(a)
	if err != nil {
		return err
	}
	var rec gateway.Record
	if err := c.call(http.MethodPost, "/v1/incidents", "create", body, http.StatusCreated, &rec); err != nil {
		return err
	}
	// The gateway keeps opened_at as whole nanoseconds.
	if rec.ID != a.ID || rec.Scenario != a.Scenario || rec.Region != a.Region ||
		math.Abs(rec.OpenedAtMinutes-a.AtMin) > 1e-9 || rec.Status != "open" {
		return fmt.Errorf("POST %s: record %s/%s/%s/%g/%s does not echo the request",
			a.ID, rec.ID, rec.Scenario, rec.Region, rec.OpenedAtMinutes, rec.Status)
	}
	return nil
}

// get fetches one incident and checks it is the one asked for.
func (c *client) get(id, region string) (gateway.Record, error) {
	var rec gateway.Record
	if err := c.call(http.MethodGet, "/v1/incidents/"+id, "get", nil, http.StatusOK, &rec); err != nil {
		return rec, err
	}
	if rec.ID != id || rec.Region != region {
		return rec, fmt.Errorf("GET %s: got record %s in region %s, want region %s", id, rec.ID, rec.Region, region)
	}
	return rec, nil
}

// patch applies an update and returns the updated record.
func (c *client) patch(id string, upd map[string]string) (gateway.Record, error) {
	var rec gateway.Record
	body, err := json.Marshal(upd)
	if err != nil {
		return rec, err
	}
	if err := c.call(http.MethodPatch, "/v1/incidents/"+id, "patch", body, http.StatusOK, &rec); err != nil {
		return rec, err
	}
	if rec.ID != id {
		return rec, fmt.Errorf("PATCH %s: got record %s", id, rec.ID)
	}
	return rec, nil
}

// list fetches the first page and checks the list contract: at most
// limit records, in (opened_at_minutes, id) order, all in the filtered
// region.
func (c *client) list(region string, limit int) (gateway.ListPage, error) {
	q := url.Values{"limit": {fmt.Sprint(limit)}}
	if region != "" {
		q.Set("region", region)
	}
	var page gateway.ListPage
	if err := c.call(http.MethodGet, "/v1/incidents?"+q.Encode(), "list", nil, http.StatusOK, &page); err != nil {
		return page, err
	}
	if len(page.Incidents) > limit {
		return page, fmt.Errorf("list: %d records on a page of %d", len(page.Incidents), limit)
	}
	for i, r := range page.Incidents {
		if region != "" && r.Region != region {
			return page, fmt.Errorf("list region=%s: record %s is in %s", region, r.ID, r.Region)
		}
		if i > 0 {
			p := page.Incidents[i-1]
			if p.OpenedAtMinutes > r.OpenedAtMinutes || (p.OpenedAtMinutes == r.OpenedAtMinutes && p.ID >= r.ID) {
				return page, fmt.Errorf("list: %s sorts after %s", p.ID, r.ID)
			}
		}
	}
	return page, nil
}

// metrics reads the gateway's /metrics.
func (c *client) metrics() (scrape, error) {
	code, data, err := c.do(http.MethodGet, "/metrics", "metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d: %s", code, strings.TrimSpace(string(data)))
	}
	return parseMetrics(data), nil
}

// drain drains the gateway's scheduler and checks the summary accounts
// for exactly the acknowledged incidents.
func (c *client) drain(acked int) (gateway.DrainSummary, error) {
	var sum gateway.DrainSummary
	if err := c.call(http.MethodPost, "/v1/sim/drain", "drain", nil, http.StatusOK, &sum); err != nil {
		return sum, err
	}
	n := 0
	for _, r := range sum.Regions {
		n += r.Incidents
	}
	switch {
	case sum.Incidents != acked:
		return sum, fmt.Errorf("drain: %d incidents, %d acknowledged", sum.Incidents, acked)
	case sum.Admitted+sum.Shed != sum.Incidents:
		return sum, fmt.Errorf("drain: admitted %d + shed %d != %d incidents", sum.Admitted, sum.Shed, sum.Incidents)
	case n != sum.Incidents:
		return sum, fmt.Errorf("drain: regions hold %d of %d incidents", n, sum.Incidents)
	}
	return sum, nil
}
