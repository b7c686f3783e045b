// Package cluster turns independent crowdval serve processes into one
// session fabric.
//
// Three cooperating pieces, all built on the per-session WAL:
//
//   - Ring: rendezvous (highest-random-weight) hashing of session names onto
//     a static peer list. Every node and every router computes the same
//     owner for a name with no coordination; adding or removing one peer
//     reassigns only the sessions that hashed to it.
//
//   - Node: wraps a server.Manager/server.Server pair into a fabric member.
//     It gates owner-only operations (a request for a session owned
//     elsewhere is bounced with HTTP 421 and the owner's address), serves
//     the internal transfer endpoint for live session handoff (its body is
//     a subscribe stream's reset: one RecCreate snapshot record), streams
//     per-session WAL records to subscribed followers, and exposes the
//     fabric counters on the metrics endpoints. Drain hands every owned
//     session to the next preferred peer before shutdown; Promote adopts a
//     followed session after its leader dies.
//
//   - Follower: discovers a leader's sessions and tails each one's WAL over
//     the subscribe stream. The wire format IS the WAL byte format (header
//     plus CRC-framed records with implicit LSNs), so the follower applies
//     records through the same log-before-apply replay path recovery uses.
//     A stream always begins with a RecCreate snapshot when the follower is
//     behind the leader's log floor, and plain records otherwise.
//
//   - Router: a thin proxy tier (crowdval route) that consistent-hashes
//     each request's session name onto the fabric, follows HTTP 421
//     redirects when ownership has moved (handoff, promotion), and fails
//     over to the next preferred peer when a node is unreachable.
//
// Ownership is ring-by-default with explicit overrides layered on top: a
// handoff target records itself as owner of the moved session, a promoted
// follower records itself as owner of the adopted one. Routers converge on
// the override holder by chasing 421 redirects and skipping dead peers, so
// no gossip protocol is needed for the static-membership fabrics this
// package targets.
//
// Every refusal a node's fabric endpoints or the router write goes through
// server.WriteError, so the whole HTTP surface answers errors in one format:
// a JSON ErrorResponse whose code names the sentinel (ErrBadRequest for a
// malformed or unroutable request, ErrUnavailable with Retry-After when no
// node can serve it or a draining node refuses a transfer).
package cluster
