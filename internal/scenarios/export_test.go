package scenarios

// Test seams for the fork-versus-fresh differential tests. They set
// process-wide state, so callers must not run in parallel with other
// scenario builds.

// SetFreshWorlds makes StandardWorld build from scratch (on) instead of
// forking the template (off, the default).
func SetFreshWorlds(on bool) { freshWorlds.Store(on) }

// SetIncidentSeq rewinds the incident ID sequence, so two builds of one
// scenario and seed assign the same incident ID.
func SetIncidentSeq(n int64) { incidentSeq.Store(n) }

// StandardTemplate is the template StandardWorld forks under the
// current route-cache setting.
var StandardTemplate = standardTemplate
