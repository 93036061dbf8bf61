package netsim

import "fmt"

// ClosConfig parameterizes a folded-Clos data-center fabric for one region.
type ClosConfig struct {
	Region       string
	Pods         int
	ToRsPerPod   int
	AggsPerPod   int
	Spines       int
	HostsPerToR  int
	LinkGbps     float64 // ToR<->Agg and Agg<->Spine capacity
	HostLinkGbps float64 // Host<->ToR capacity
}

// DefaultClosConfig returns a small but non-trivial fabric: 4 pods of
// 4 ToRs and 2 aggs, 4 spines, 2 hosts per ToR.
func DefaultClosConfig(region string) ClosConfig {
	return ClosConfig{
		Region:       region,
		Pods:         4,
		ToRsPerPod:   4,
		AggsPerPod:   2,
		Spines:       4,
		HostsPerToR:  2,
		LinkGbps:     100,
		HostLinkGbps: 25,
	}
}

// BuildClos adds a Clos fabric for one region to the network and returns
// the IDs of the spine switches (which the WAN builder attaches gateways
// to). Node IDs are of the form "<region>-tor-p0-2", "<region>-spine-1",
// "<region>-host-p0-t2-h1".
func BuildClos(n *Network, cfg ClosConfig) (spines []NodeID) {
	if cfg.Pods <= 0 || cfg.ToRsPerPod <= 0 || cfg.AggsPerPod <= 0 || cfg.Spines <= 0 {
		panic("netsim: BuildClos requires positive pod/tor/agg/spine counts")
	}
	for s := 0; s < cfg.Spines; s++ {
		id := NodeID(fmt.Sprintf("%s-spine-%d", cfg.Region, s))
		n.AddNode(Node{ID: id, Kind: KindSpine, Region: cfg.Region})
		spines = append(spines, id)
	}
	for p := 0; p < cfg.Pods; p++ {
		var aggs []NodeID
		for a := 0; a < cfg.AggsPerPod; a++ {
			id := NodeID(fmt.Sprintf("%s-agg-p%d-%d", cfg.Region, p, a))
			n.AddNode(Node{ID: id, Kind: KindAgg, Region: cfg.Region})
			aggs = append(aggs, id)
			for _, s := range spines {
				n.AddLink(id, s, cfg.LinkGbps, 0.05)
			}
		}
		for t := 0; t < cfg.ToRsPerPod; t++ {
			tid := NodeID(fmt.Sprintf("%s-tor-p%d-%d", cfg.Region, p, t))
			n.AddNode(Node{ID: tid, Kind: KindToR, Region: cfg.Region})
			for _, a := range aggs {
				n.AddLink(tid, a, cfg.LinkGbps, 0.02)
			}
			for h := 0; h < cfg.HostsPerToR; h++ {
				hid := NodeID(fmt.Sprintf("%s-host-p%d-t%d-h%d", cfg.Region, p, t, h))
				n.AddNode(Node{ID: hid, Kind: KindHost, Region: cfg.Region})
				n.AddLink(hid, tid, cfg.HostLinkGbps, 0.01)
			}
		}
	}
	return spines
}

// WANConfig parameterizes one backbone network (e.g. B2 or B4 in the
// Google Casc-1 incident: two WANs with different capacity profiles).
type WANConfig struct {
	Name         string
	RoutersPer   int     // WAN routers per region
	InterGbps    float64 // capacity of inter-region WAN links
	AttachGbps   float64 // capacity of gateway<->WAN-router links
	InterDelayMs float64
}

// BackboneConfig parameterizes the multi-region, dual-WAN deployment.
type BackboneConfig struct {
	Regions           []string
	WANs              []WANConfig
	GatewaysPerRegion int
}

// DefaultBackboneConfig returns a three-region deployment connected by two
// WANs shaped like the paper's Casc-1 setting: B4 is the high-capacity
// bulk network, B2 the lower-capacity fallback.
func DefaultBackboneConfig() BackboneConfig {
	return BackboneConfig{
		Regions:           []string{"us-east", "us-west", "eu-north"},
		GatewaysPerRegion: 2,
		WANs: []WANConfig{
			{Name: "B2", RoutersPer: 1, InterGbps: 120, AttachGbps: 400, InterDelayMs: 20},
			{Name: "B4", RoutersPer: 2, InterGbps: 1600, AttachGbps: 1600, InterDelayMs: 25},
		},
	}
}

// Backbone describes the built multi-region network: which routers belong
// to which WAN, and the gateways per region.
type Backbone struct {
	Regions    []string
	Gateways   map[string][]NodeID // region -> gateway IDs
	WANRouters map[string][]NodeID // WAN name -> router IDs (all regions)
	WANNames   []string
}

// BuildBackbone constructs per-region Clos fabrics joined by the
// configured WANs and returns the backbone layout. Each region gets
// GatewaysPerRegion gateways attached to every spine; each WAN places
// RoutersPer routers in every region, fully meshes them across regions,
// and attaches them to the local gateways.
func BuildBackbone(n *Network, cfg BackboneConfig) *Backbone {
	if len(cfg.Regions) < 2 {
		panic("netsim: BuildBackbone requires at least two regions")
	}
	if cfg.GatewaysPerRegion <= 0 {
		cfg.GatewaysPerRegion = 2
	}
	bb := &Backbone{
		Regions:    append([]string(nil), cfg.Regions...),
		Gateways:   make(map[string][]NodeID),
		WANRouters: make(map[string][]NodeID),
	}
	for _, w := range cfg.WANs {
		bb.WANNames = append(bb.WANNames, w.Name)
	}

	spinesByRegion := make(map[string][]NodeID)
	for _, region := range cfg.Regions {
		spines := BuildClos(n, DefaultClosConfig(region))
		spinesByRegion[region] = spines
		for g := 0; g < cfg.GatewaysPerRegion; g++ {
			gid := NodeID(fmt.Sprintf("%s-gw-%d", region, g))
			n.AddNode(Node{ID: gid, Kind: KindGateway, Region: region})
			bb.Gateways[region] = append(bb.Gateways[region], gid)
			for _, s := range spines {
				n.AddLink(gid, s, 400, 0.05)
			}
		}
	}

	for _, w := range cfg.WANs {
		perRegion := make(map[string][]NodeID)
		for _, region := range cfg.Regions {
			for r := 0; r < w.RoutersPer; r++ {
				rid := NodeID(fmt.Sprintf("%s-%s-r%d", w.Name, region, r))
				n.AddNode(Node{ID: rid, Kind: KindWANRouter, Region: region, WANName: w.Name})
				perRegion[region] = append(perRegion[region], rid)
				bb.WANRouters[w.Name] = append(bb.WANRouters[w.Name], rid)
				for _, gid := range bb.Gateways[region] {
					n.AddLink(rid, gid, w.AttachGbps, 0.1)
				}
			}
		}
		// Full mesh across regions (router i in region A to router i in
		// region B, plus cross pairs for redundancy when RoutersPer > 1).
		for i, ra := range cfg.Regions {
			for _, rb := range cfg.Regions[i+1:] {
				for _, a := range perRegion[ra] {
					for _, b := range perRegion[rb] {
						n.AddLink(a, b, w.InterGbps, w.InterDelayMs)
					}
				}
			}
		}
	}
	return bb
}
