package tools

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/embed"
	"repro/internal/kb"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// base carries shared tool metadata.
type base struct {
	name, desc string
	risk       RiskClass
	latency    time.Duration
}

func (b base) Name() string           { return b.name }
func (b base) Description() string    { return b.desc }
func (b base) Risk() RiskClass        { return b.risk }
func (b base) Latency() time.Duration { return b.latency }

// PingMeshTool reports end-to-end loss per region pair.
type PingMeshTool struct{ base }

// NewPingMeshTool returns the tool.
func NewPingMeshTool() *PingMeshTool {
	return &PingMeshTool{base{kb.ToolPingMesh, "active probe loss between region pairs", RiskReadOnly, telemetry.QueryLatency[telemetry.MonitorPingMesh]}}
}

// Invoke implements Tool.
func (t *PingMeshTool) Invoke(w *netsim.World, _ map[string]string) (Result, error) {
	pm := telemetry.NewPingMesh(w)
	pairs := pm.Query()
	var res Result
	worst := telemetry.PairLoss{}
	for _, p := range pairs {
		if p.LossRate > worst.LossRate {
			worst = p
		}
	}
	if worst.LossRate >= 0.01 {
		res.Findings = append(res.Findings, fmt.Sprintf("%s=true worstpair=%s->%s loss=%.3f", kb.CPacketLoss, worst.SrcRegion, worst.DstRegion, worst.LossRate))
	} else {
		res.Findings = append(res.Findings, fmt.Sprintf("%s=false maxloss=%.4f", kb.CPacketLoss, worst.LossRate))
	}
	res.Raw = fmt.Sprintf("pingmesh: %d pairs, worst %.2f%% (%s->%s)", len(pairs), worst.LossRate*100, worst.SrcRegion, worst.DstRegion)
	return res, nil
}

// LinkUtilTool reports hot links and the service dominating them.
type LinkUtilTool struct{ base }

// NewLinkUtilTool returns the tool.
func NewLinkUtilTool() *LinkUtilTool {
	return &LinkUtilTool{base{kb.ToolLinkUtil, "per-link utilization, top talkers", RiskReadOnly, telemetry.QueryLatency[telemetry.MonitorLinkUtil]}}
}

// Invoke implements Tool.
func (t *LinkUtilTool) Invoke(w *netsim.World, args map[string]string) (Result, error) {
	k, _ := strconv.Atoi(args["top"])
	if k <= 0 {
		k = 10
	}
	mon := &telemetry.LinkUtilMonitor{World: w}
	top := mon.Top(k)
	var res Result
	if len(top) == 0 {
		res.Findings = append(res.Findings, "linkutil_unavailable=true")
		res.Raw = "linkutil: collector returned no rows"
		return res, nil
	}
	res.Bindings = map[string]string{}
	if top[0].Utilization >= 1.0 {
		svc := dominantService(w, top[0].Link)
		res.Findings = append(res.Findings,
			fmt.Sprintf("%s=true link=%s util=%.2f service=%s", kb.CLinkOverload, top[0].Link, top[0].Utilization, svc))
		res.Bindings[kb.PhLink] = string(top[0].Link)
		if svc != "" {
			res.Bindings[kb.PhService] = svc
			// A surge means the dominant service's demand grew well past
			// its provisioned baseline; overload from rerouted load is
			// not a surge.
			base := w.ServiceBaseline[svc]
			cur := w.ServiceDemand(svc)
			if base > 0 && cur >= 1.5*base {
				res.Findings = append(res.Findings,
					fmt.Sprintf("%s=true service=%s demand=%.0f baseline=%.0f", kb.CTrafficSurge, svc, cur, base))
			} else {
				res.Findings = append(res.Findings,
					fmt.Sprintf("%s=false service=%s demand=%.0f baseline=%.0f", kb.CTrafficSurge, svc, cur, base))
			}
		}
	} else {
		res.Findings = append(res.Findings, fmt.Sprintf("%s=false maxutil=%.2f", kb.CLinkOverload, top[0].Utilization))
		res.Findings = append(res.Findings, fmt.Sprintf("%s=false maxutil=%.2f", kb.CTrafficSurge, top[0].Utilization))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top %d links by utilization:", len(top))
	for _, s := range top {
		fmt.Fprintf(&b, "\n  %s util=%.2f loss=%.3f", s.Link, s.Utilization, s.LossRate)
	}
	res.Raw = b.String()
	return res, nil
}

// dominantService finds the service contributing the most load to a link.
func dominantService(w *netsim.World, lid netsim.LinkID) string {
	rep := w.Report()
	load := map[string]float64{}
	for _, fs := range rep.FlowStats {
		if !fs.Routed {
			continue
		}
		for dl, frac := range fs.DAG.Links() {
			if dl.Link == lid {
				load[fs.Flow.Service] += frac * fs.Flow.DemandGbps
			}
		}
	}
	bestSvc, best := "", 0.0
	svcs := make([]string, 0, len(load))
	for s := range load {
		svcs = append(svcs, s)
	}
	sort.Strings(svcs)
	for _, s := range svcs {
		if load[s] > best {
			best, bestSvc = load[s], s
		}
	}
	return bestSvc
}

// DeviceHealthTool lists unhealthy devices.
type DeviceHealthTool struct{ base }

// NewDeviceHealthTool returns the tool.
func NewDeviceHealthTool() *DeviceHealthTool {
	return &DeviceHealthTool{base{kb.ToolDeviceHealth, "fleet health: down or isolated devices", RiskReadOnly, telemetry.QueryLatency[telemetry.MonitorDeviceHealth]}}
}

// Invoke implements Tool.
func (t *DeviceHealthTool) Invoke(w *netsim.World, _ map[string]string) (Result, error) {
	mon := &telemetry.DeviceHealthMonitor{World: w}
	recs := mon.Unhealthy()
	var res Result
	var down []string
	for _, r := range recs {
		if !r.Healthy && !r.Isolated {
			down = append(down, string(r.Node))
		}
	}
	if len(down) > 0 {
		res.Findings = append(res.Findings, fmt.Sprintf("%s=true devices=%s count=%d", kb.CDeviceDown, strings.Join(down, ","), len(down)))
		res.Bindings = map[string]string{kb.PhDevice: strings.Join(down, ",")}
	} else {
		res.Findings = append(res.Findings, kb.CDeviceDown+"=false fleet=healthy")
	}
	res.Raw = fmt.Sprintf("device health: %d down, %d records", len(down), len(recs))
	return res, nil
}

// CountersTool reads drop counters and flags gray links (drops without
// overload). Production counters are cumulative, so the tool measures a
// delta over a window: it samples twice, five minutes apart, and reports
// any link that dropped in either sample — which is what catches
// intermittent (flapping) corruption that a single spot check misses.
type CountersTool struct{ base }

// counterWindow is the measurement window between the two samples.
const counterWindow = 5 * time.Minute

// NewCountersTool returns the tool.
func NewCountersTool() *CountersTool {
	return &CountersTool{base{kb.ToolCounters, "per-link drop counters over a 5m window; gray-failure detection", RiskReadOnly, telemetry.QueryLatency[telemetry.MonitorCounters]}}
}

// Invoke implements Tool. The measurement window advances the simulated
// clock: reading a counter delta takes real incident time.
func (t *CountersTool) Invoke(w *netsim.World, _ map[string]string) (Result, error) {
	type obs struct {
		drop, util float64
	}
	sample := func(into map[netsim.LinkID]obs) int {
		mon := &telemetry.CounterMonitor{World: w}
		drops := mon.Drops()
		rep := w.Report()
		for _, d := range drops {
			ls := rep.LinkStats[d.Link]
			if ls == nil {
				continue
			}
			prev := into[d.Link]
			if d.DropGbps > prev.drop {
				into[d.Link] = obs{drop: d.DropGbps, util: ls.Utilization}
			}
		}
		return len(drops)
	}
	seen := map[netsim.LinkID]obs{}
	n1 := sample(seen)
	w.Clock.Advance(counterWindow)
	w.Invalidate()
	n2 := sample(seen)

	var res Result
	res.Bindings = map[string]string{}
	ids := make([]netsim.LinkID, 0, len(seen))
	for lid := range seen {
		ids = append(ids, lid)
	}
	slices.Sort(ids)
	grayFound := false
	for _, lid := range ids {
		o := seen[lid]
		if o.util < 0.9 {
			// Dropping while cool: corruption, not congestion.
			res.Findings = append(res.Findings,
				fmt.Sprintf("%s=true link=%s drops=%.2f util=%.2f window=5m", kb.CLinkCorruption, lid, o.drop, o.util))
			if !grayFound {
				res.Bindings[kb.PhLink] = string(lid)
				grayFound = true
			}
		}
	}
	if !grayFound {
		res.Findings = append(res.Findings, kb.CLinkCorruption+"=false")
	}
	if len(seen) == 0 {
		res.Findings = append(res.Findings, "drops=none")
	}
	res.Raw = fmt.Sprintf("counters over 5m window: %d/%d links dropping in the two samples", n1, n2)
	return res, nil
}

var (
	osCrashRe  = regexp.MustCompile(`fatal exception in (\w+) packet handler`)
	linkDownRe = regexp.MustCompile(`link (\S+) to \S+: carrier lost`)
)

// SyslogTool searches device logs.
type SyslogTool struct{ base }

// NewSyslogTool returns the tool.
func NewSyslogTool() *SyslogTool {
	return &SyslogTool{base{kb.ToolSyslog, "device log search", RiskReadOnly, telemetry.QueryLatency[telemetry.MonitorSyslog]}}
}

// Invoke implements Tool.
func (t *SyslogTool) Invoke(w *netsim.World, args map[string]string) (Result, error) {
	sinceMin, _ := strconv.Atoi(args["sincemin"])
	if sinceMin <= 0 {
		sinceMin = 120
	}
	minSev := netsim.SevError
	if args["sev"] == "warning" {
		minSev = netsim.SevWarning
	}
	since := w.Clock.Now() - time.Duration(sinceMin)*time.Minute
	if since < 0 {
		since = 0
	}
	s := &telemetry.SyslogSearch{World: w}
	events := s.Since(since, minSev)

	var res Result
	res.Bindings = map[string]string{}
	var crashDevices []string
	crashProto := ""
	var downLinks []string
	for _, e := range events {
		if m := osCrashRe.FindStringSubmatch(e.Message); m != nil {
			crashProto = m[1]
			crashDevices = append(crashDevices, string(e.Node))
		}
		if m := linkDownRe.FindStringSubmatch(e.Message); m != nil {
			downLinks = append(downLinks, m[1])
		}
	}
	if len(downLinks) > 0 {
		sort.Strings(downLinks)
		downLinks = dedupe(downLinks)
		// Report only links still down now: restored links are history.
		live := downLinks[:0]
		for _, lid := range downLinks {
			if l := w.Net.Link(netsim.LinkID(lid)); l != nil && l.Down {
				live = append(live, lid)
			}
		}
		if len(live) > 0 {
			res.Findings = append(res.Findings,
				fmt.Sprintf("%s=true links=%s count=%d", kb.CLinkDown, strings.Join(live, ","), len(live)))
			res.Bindings[kb.PhLink] = live[0]
		} else {
			res.Findings = append(res.Findings, kb.CLinkDown+"=false links=restored")
		}
	} else {
		res.Findings = append(res.Findings, kb.CLinkDown+"=false")
	}
	if len(crashDevices) > 0 {
		sort.Strings(crashDevices)
		crashDevices = dedupe(crashDevices)
		res.Findings = append(res.Findings,
			fmt.Sprintf("%s=true devices=%s protocol=%s", kb.CDeviceOSCrash, strings.Join(crashDevices, ","), crashProto))
		res.Findings = append(res.Findings,
			fmt.Sprintf("%s=true protocol=%s evidence=fatal-exception-signature", kb.CProtocolBug, crashProto))
		res.Bindings[kb.PhDevice] = strings.Join(crashDevices, ",")
		res.Bindings[kb.PhProtocol] = crashProto
	} else {
		res.Findings = append(res.Findings, kb.CDeviceOSCrash+"=false")
		res.Findings = append(res.Findings, kb.CProtocolBug+"=false")
	}
	res.Raw = fmt.Sprintf("syslog: %d events >= %s in last %dm", len(events), minSev, sinceMin)
	return res, nil
}

func dedupe(s []string) []string {
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// ControllerStateTool inspects the WAN traffic controller.
type ControllerStateTool struct{ base }

// NewControllerStateTool returns the tool.
func NewControllerStateTool() *ControllerStateTool {
	return &ControllerStateTool{base{kb.ToolControllerState, "traffic controller WAN health view", RiskReadOnly, 2 * time.Minute}}
}

// Invoke implements Tool.
func (t *ControllerStateTool) Invoke(w *netsim.World, _ map[string]string) (Result, error) {
	var res Result
	if w.Ctl == nil {
		res.Findings = append(res.Findings, kb.CWANFailover+"=false controller=absent")
		res.Raw = "no traffic controller in this deployment"
		return res, nil
	}
	w.Ctl.Evaluate()
	failed := w.Ctl.FailedWANs()
	if len(failed) > 0 {
		res.Findings = append(res.Findings,
			fmt.Sprintf("%s=true wans=%s", kb.CWANFailover, strings.Join(failed, ",")))
		res.Bindings = map[string]string{kb.PhWAN: failed[0]}
	} else {
		res.Findings = append(res.Findings, kb.CWANFailover+"=false")
	}
	res.Raw = w.Ctl.String()
	return res, nil
}

// PrefixTableTool inspects WAN prefix announcements for inconsistency.
type PrefixTableTool struct{ base }

// NewPrefixTableTool returns the tool.
func NewPrefixTableTool() *PrefixTableTool {
	return &PrefixTableTool{base{kb.ToolPrefixTable, "WAN prefix announcement consistency check", RiskReadOnly, 3 * time.Minute}}
}

// Invoke implements Tool.
func (t *PrefixTableTool) Invoke(w *netsim.World, _ map[string]string) (Result, error) {
	var res Result
	if w.Ctl == nil {
		res.Findings = append(res.Findings, kb.CPrefixConflict+"=false controller=absent")
		return res, nil
	}
	bad := w.Ctl.InconsistentWANs()
	if len(bad) > 0 {
		res.Findings = append(res.Findings,
			fmt.Sprintf("%s=true wans=%s", kb.CPrefixConflict, strings.Join(bad, ",")))
		res.Bindings = map[string]string{kb.PhWAN: bad[0]}
	} else {
		res.Findings = append(res.Findings, kb.CPrefixConflict+"=false")
	}
	res.Raw = fmt.Sprintf("prefix table: %d announcements, inconsistent WANs: %v", len(w.Ctl.Announcements()), bad)
	return res, nil
}

// RecentChangesTool queries the change-management log and cross-checks
// config pushes against live control-plane inconsistency.
type RecentChangesTool struct{ base }

// NewRecentChangesTool returns the tool.
func NewRecentChangesTool() *RecentChangesTool {
	return &RecentChangesTool{base{kb.ToolRecentChanges, "change-management lookback with control-plane cross-check", RiskReadOnly, 3 * time.Minute}}
}

// Invoke implements Tool.
func (t *RecentChangesTool) Invoke(w *netsim.World, args map[string]string) (Result, error) {
	sinceMin, _ := strconv.Atoi(args["sincemin"])
	if sinceMin <= 0 {
		sinceMin = 60 * 24 * 14
	}
	since := w.Clock.Now() - time.Duration(sinceMin)*time.Minute
	if since < 0 {
		since = 0
	}
	var res Result
	res.Bindings = map[string]string{}
	inconsistent := w.Ctl != nil && len(w.Ctl.InconsistentWANs()) > 0
	sawPush, sawRollout := false, false
	var lines []string
	for _, rec := range w.Changes.Since(since) {
		if rec.Kind == netsim.ChangeMitigation {
			continue // our own actions
		}
		lines = append(lines, fmt.Sprintf("%s %s [%s] %s", rec.ID, rec.Kind, rec.Team, rec.Description))
		switch rec.Kind {
		case netsim.ChangeConfigPush:
			sawPush = true
			res.Findings = append(res.Findings, fmt.Sprintf("%s=true change=%s team=%s", kb.CConfigPush, rec.ID, rec.Team))
			if inconsistent {
				// High-level insight: the push correlates with live
				// prefix-table inconsistency.
				res.Findings = append(res.Findings, fmt.Sprintf("%s=true change=%s correlated=prefix-table", kb.CConfigInconsistency, rec.ID))
			}
			res.Bindings[kb.PhChange] = rec.ID
		case netsim.ChangeProtocolRollout:
			sawRollout = true
			res.Findings = append(res.Findings, fmt.Sprintf("%s=true change=%s protocol=%s", kb.CProtocolRollout, rec.ID, rec.Details["protocol"]))
			if res.Bindings[kb.PhChange] == "" {
				res.Bindings[kb.PhChange] = rec.ID
			}
			if proto := rec.Details["protocol"]; proto != "" {
				res.Bindings[kb.PhProtocol] = proto
			}
		case netsim.ChangeMaintenance:
			res.Findings = append(res.Findings, fmt.Sprintf("%s=true change=%s team=%s", kb.CMaintenance, rec.ID, rec.Team))
			if res.Bindings[kb.PhChange] == "" {
				res.Bindings[kb.PhChange] = rec.ID
			}
		}
	}
	if !sawPush {
		res.Findings = append(res.Findings, kb.CConfigPush+"=false")
		res.Findings = append(res.Findings, kb.CConfigInconsistency+"=false")
	} else if !inconsistent {
		res.Findings = append(res.Findings, kb.CConfigInconsistency+"=false pushes=uncorrelated")
	}
	if !sawRollout {
		res.Findings = append(res.Findings, kb.CProtocolRollout+"=false")
	}
	res.Raw = "recent changes:\n  " + strings.Join(lines, "\n  ")
	return res, nil
}

// MonitorCrossCheckTool compares monitors against each other to expose a
// lying pipeline.
type MonitorCrossCheckTool struct{ base }

// NewMonitorCrossCheckTool returns the tool.
func NewMonitorCrossCheckTool() *MonitorCrossCheckTool {
	return &MonitorCrossCheckTool{base{kb.ToolMonitorCheck, "cross-validate a monitor against independent signals", RiskReadOnly, 4 * time.Minute}}
}

// Invoke implements Tool.
func (t *MonitorCrossCheckTool) Invoke(w *netsim.World, args map[string]string) (Result, error) {
	monitor := args["monitor"]
	if monitor == "" {
		monitor = telemetry.MonitorPingMesh
	}
	var res Result
	pm := telemetry.NewPingMesh(w)
	pmLoss := telemetry.MaxLoss(pm.Query())
	drops := (&telemetry.CounterMonitor{World: w}).Drops()
	var dropTotal float64
	for _, d := range drops {
		dropTotal += d.DropGbps
	}
	if pmLoss >= 0.01 && dropTotal < 0.01 {
		res.Findings = append(res.Findings,
			fmt.Sprintf("%s=true monitor=%s pingmesh=%.3f counters=%.3f", kb.CMonitorFalseAlarm, monitor, pmLoss, dropTotal))
		res.Bindings = map[string]string{kb.PhMonitor: monitor}
	} else {
		res.Findings = append(res.Findings,
			fmt.Sprintf("%s=false monitors=consistent pingmesh=%.3f counters=%.3f", kb.CMonitorFalseAlarm, pmLoss, dropTotal))
	}
	res.Raw = fmt.Sprintf("cross-check %s: pingmesh worst %.2f%%, counter drops %.2f Gbps", monitor, pmLoss*100, dropTotal)
	return res, nil
}

// SimilarIncidentsTool retrieves nearest historical incidents from the
// vector store.
type SimilarIncidentsTool struct {
	base
	Store   *embed.Store
	History *kb.History
	Query   string // incident text to search with
}

// NewSimilarIncidentsTool returns the tool over a prepared store.
func NewSimilarIncidentsTool(store *embed.Store, hist *kb.History, query string) *SimilarIncidentsTool {
	return &SimilarIncidentsTool{
		base:  base{kb.ToolSimilarIncidents, "vector search over the incident database", RiskReadOnly, 1 * time.Minute},
		Store: store, History: hist, Query: query,
	}
}

// Invoke implements Tool.
func (t *SimilarIncidentsTool) Invoke(_ *netsim.World, args map[string]string) (Result, error) {
	k, _ := strconv.Atoi(args["k"])
	if k <= 0 {
		k = 3
	}
	var res Result
	if t.Store == nil || t.Store.Len() == 0 {
		res.Findings = append(res.Findings, "similar_incidents=none database=empty")
		return res, nil
	}
	hits := t.Store.SearchANN(t.Query, k)
	for _, h := range hits {
		rec, ok := t.History.ByID(h.ID)
		if !ok {
			continue
		}
		res.Findings = append(res.Findings,
			fmt.Sprintf("similar=%s rootcause=%s score=%.2f ttm=%.0f", rec.ID, rec.RootCause, h.Score, rec.TTMMinutes))
	}
	res.Raw = fmt.Sprintf("similar incidents: %d hits", len(hits))
	return res, nil
}

// AskCustomerTool is a manual step: the OCE asks the affected customer
// for details (e.g. a packet capture). In simulation the customer's
// answer reveals flow attributes of the affected service.
type AskCustomerTool struct {
	base
	Service string
}

// NewAskCustomerTool returns the tool scoped to the incident's service.
func NewAskCustomerTool(service string) *AskCustomerTool {
	return &AskCustomerTool{
		base:    base{kb.ToolAskCustomer, "manual step: request details or a capture from the customer", RiskReadOnly, 25 * time.Minute},
		Service: service,
	}
}

// Invoke implements Tool.
func (t *AskCustomerTool) Invoke(w *netsim.World, _ map[string]string) (Result, error) {
	var res Result
	for _, f := range w.Flows() {
		if f.Service != t.Service {
			continue
		}
		for k, v := range f.Attrs {
			res.Findings = append(res.Findings, fmt.Sprintf("customer_flow=%s %s=%s", f.ID, k, v))
		}
	}
	sort.Strings(res.Findings)
	if len(res.Findings) == 0 {
		res.Findings = append(res.Findings, "customer_report=no-details")
	}
	res.Raw = fmt.Sprintf("customer of %s responded with %d details", t.Service, len(res.Findings))
	return res, nil
}

// NewDefaultRegistry assembles the full diagnostic toolbox for one
// incident: the monitor tools plus knowledge tools bound to the incident
// context.
func NewDefaultRegistry(store *embed.Store, hist *kb.History, incidentText, service string) *Registry {
	r := NewRegistry()
	must := func(team string, t Tool) {
		if err := r.Register(team, t); err != nil {
			panic(err)
		}
	}
	must("monitoring", NewPingMeshTool())
	must("monitoring", NewLinkUtilTool())
	must("monitoring", NewDeviceHealthTool())
	must("monitoring", NewCountersTool())
	must("monitoring", NewSyslogTool())
	must("wan", NewControllerStateTool())
	must("wan", NewPrefixTableTool())
	must("release", NewRecentChangesTool())
	must("monitoring", NewMonitorCrossCheckTool())
	must("im", NewSimilarIncidentsTool(store, hist, incidentText))
	must("support", NewAskCustomerTool(service))
	must("monitoring", NewLossHistoryTool())
	return r
}

// LossHistoryTool classifies recent loss and latency series per service
// from the attached telemetry recorder: flat, rising, falling or
// intermittent. Intermittent loss is the flapping-fault signature an
// instantaneous query cannot see.
type LossHistoryTool struct{ base }

// LossHistoryToolName is the registry name of the tool.
const LossHistoryToolName = "loss-history"

// NewLossHistoryTool returns the tool.
func NewLossHistoryTool() *LossHistoryTool {
	return &LossHistoryTool{base{LossHistoryToolName, "trend classification of per-service loss/latency series", RiskReadOnly, 2 * time.Minute}}
}

// Invoke implements Tool. args["lookbackmin"] bounds the window
// (default 60 minutes).
func (t *LossHistoryTool) Invoke(w *netsim.World, args map[string]string) (Result, error) {
	rec := telemetry.RecorderOf(w)
	var res Result
	if rec == nil {
		res.Findings = append(res.Findings, "history=unavailable")
		res.Raw = "no telemetry recorder attached to this deployment"
		return res, nil
	}
	lookMin, _ := strconv.Atoi(args["lookbackmin"])
	if lookMin <= 0 {
		lookMin = 60
	}
	lookback := time.Duration(lookMin) * time.Minute
	interesting := 0
	for _, key := range rec.Keys() {
		if !strings.HasSuffix(key, ":loss") {
			continue
		}
		trend, crossings := rec.Classify(key, lookback, 0.01)
		if trend == telemetry.TrendFlat && crossings == 0 {
			continue
		}
		interesting++
		res.Findings = append(res.Findings,
			fmt.Sprintf("loss_trend=%s series=%s crossings=%d", trend, key, crossings))
	}
	if interesting == 0 {
		res.Findings = append(res.Findings, "loss_trend=flat all_series=quiet")
	}
	res.Raw = fmt.Sprintf("loss history over %dm: %d series with activity (%s)", lookMin, interesting, rec)
	return res, nil
}
