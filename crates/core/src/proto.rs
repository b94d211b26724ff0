//! **Typed command/response protocol** for the serving layer: the
//! [`Request`] and [`Response`] enums every surface (REPL, TCP server,
//! shard router) dispatches on, plus the structured [`ServerError`] that
//! replaces stringly `error: ...` replies.
//!
//! # Text is the wire form, types are the program form
//!
//! The NEDWIRE1 frame payload (see [`crate::wire`]) stays what it always
//! was: UTF-8 command lines, one request per line, replies whose final
//! line starts with `ok` or `error:`. What changed is *where* that text
//! is interpreted: a frame payload is parsed **once at the frame
//! boundary** into `Request` values ([`Request::parse_line`]), the server
//! dispatches by exhaustive `match` (no token matching anywhere on the
//! TCP path), and programmatic clients — the shard router above all —
//! compose `Request` values and parse `Response` values instead of
//! formatting and scraping strings.
//!
//! [`Display`](std::fmt::Display)/[`FromStr`] are kept
//! as an exact pair with the historical text forms, so hand-typed REPL
//! sessions, old soak harnesses, and saved command scripts keep working:
//! every old text form parses to the same `Request` it always meant
//! (pinned by `crates/core/tests/proto_roundtrip.rs`), and every
//! `Request`/`Response` survives `Display → parse` bit-identically.
//!
//! # Reply grammar
//!
//! A reply is one or more lines; the final line is the **terminator** and
//! starts with `ok` or `error:`. Lines before it are the body (`hit ...`
//! lines for query replies, free text for `stats`/`help`). Batch reply
//! frames concatenate replies in request order, which
//! [`Response::parse_stream`] splits back apart on terminator lines.
//!
//! # Error taxonomy
//!
//! [`ServerError`] classifies failures by what the caller should do:
//!
//! * [`ServerError::BadRequest`] — the request itself is wrong; retrying
//!   it verbatim can never succeed.
//! * [`ServerError::Overloaded`] — admission control shed the request;
//!   retry later, ideally elsewhere (another replica).
//! * [`ServerError::ShuttingDown`] — the server is draining; retry on a
//!   replica.
//! * [`ServerError::Io`] — transport or storage trouble; retryable
//!   (idempotent requests only).
//! * [`ServerError::CatchingUp`] — the replica is replaying a WAL suffix
//!   from a peer and is not yet at the fleet epoch; retry elsewhere.
//! * [`ServerError::Corrupt`] — protocol or state integrity is gone;
//!   fatal for this peer.
//!
//! The router's per-shard failover logic branches on
//! [`ServerError::is_retryable`] — exactly the distinction free-form
//! error strings could not offer.

use crate::wire::WireError;
use std::fmt;
use std::str::FromStr;

/// A structured serving error, carried in [`Response::Error`].
///
/// The text form keeps the historical `error: ...` prefix; the
/// non-[`BadRequest`](ServerError::BadRequest) variants add a stable
/// machine-readable tag (`overloaded:`, `shutting down:`, `io:`,
/// `catching up:`, `corrupt:`) after it. Messages are single-line by
/// construction — the reply grammar splits on terminator lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The request is malformed or names something that does not exist.
    /// Never retryable.
    BadRequest(String),
    /// Admission control shed the request; retry later / elsewhere.
    Overloaded(String),
    /// The server is draining and will not accept new work.
    ShuttingDown(String),
    /// Transport or storage I/O failed; safe to retry idempotent reads.
    Io(String),
    /// The replica is mid catch-up (replaying a peer's WAL suffix) and
    /// cannot serve consistent reads yet; retry on another replica.
    CatchingUp(String),
    /// Framing, checksum, or persistent-state integrity failure — fatal
    /// for this peer.
    Corrupt(String),
}

impl ServerError {
    /// Shorthand for the most common constructor.
    pub fn bad(msg: impl Into<String>) -> Self {
        ServerError::BadRequest(msg.into())
    }

    /// Whether a caller may reasonably retry the *same* request (on this
    /// peer after a backoff, or on a replica). `BadRequest` and `Corrupt`
    /// are permanent.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServerError::Overloaded(_)
                | ServerError::ShuttingDown(_)
                | ServerError::Io(_)
                | ServerError::CatchingUp(_)
        )
    }

    /// The single-line message without the `error:` framing.
    pub fn message(&self) -> &str {
        match self {
            ServerError::BadRequest(m)
            | ServerError::Overloaded(m)
            | ServerError::ShuttingDown(m)
            | ServerError::Io(m)
            | ServerError::CatchingUp(m)
            | ServerError::Corrupt(m) => m,
        }
    }

    /// Parses the text after an `error: ` prefix back into the variant.
    /// Untagged messages (including every pre-typed-protocol error ever
    /// emitted) parse as [`ServerError::BadRequest`].
    fn parse_tail(tail: &str) -> Self {
        if let Some(m) = tail.strip_prefix("overloaded: ") {
            ServerError::Overloaded(m.to_string())
        } else if let Some(m) = tail.strip_prefix("shutting down: ") {
            ServerError::ShuttingDown(m.to_string())
        } else if let Some(m) = tail.strip_prefix("io: ") {
            ServerError::Io(m.to_string())
        } else if let Some(m) = tail.strip_prefix("catching up: ") {
            ServerError::CatchingUp(m.to_string())
        } else if let Some(m) = tail.strip_prefix("corrupt: ") {
            ServerError::Corrupt(m.to_string())
        } else {
            ServerError::BadRequest(tail.to_string())
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::BadRequest(m) => write!(f, "error: {m}"),
            ServerError::Overloaded(m) => write!(f, "error: overloaded: {m}"),
            ServerError::ShuttingDown(m) => write!(f, "error: shutting down: {m}"),
            ServerError::Io(m) => write!(f, "error: io: {m}"),
            ServerError::CatchingUp(m) => write!(f, "error: catching up: {m}"),
            ServerError::Corrupt(m) => write!(f, "error: corrupt: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<WireError> for ServerError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ServerError::Io(e.to_string()),
            WireError::Codec(e) => ServerError::Corrupt(format!("malformed frame: {e}")),
            WireError::BadLength(n) => ServerError::Corrupt(format!("bad frame length {n}")),
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e.to_string())
    }
}

/// One command, parsed. The text form (one whitespace-separated line) is
/// the wire encoding; see the [module docs](self) for the compatibility
/// contract. `path` and `shape` operands are single tokens — they cannot
/// contain whitespace, which the parser enforces by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `query <graph.edges> <node> [top]` — nearest indexed signatures to
    /// a node of an edge-list graph (extracted server-side).
    Query {
        /// Edge-list path, resolved server-side.
        path: String,
        /// Query node id within that graph.
        node: u32,
        /// How many hits (text form omits it for the default 5).
        top: usize,
    },
    /// `range <graph.edges> <node> <r>` — all signatures with NED ≤ r.
    Range {
        /// Edge-list path, resolved server-side.
        path: String,
        /// Query node id within that graph.
        node: u32,
        /// Inclusive distance radius.
        radius: u64,
    },
    /// `sig <parens-tree> [top] [within=<b>]` — k-NN by a literal tree
    /// shape. `within` is an inclusive upper bound on useful distances:
    /// the answer is the best `top` of the hits within `b`, and the
    /// server abandons candidates past it. A router forwards it to every
    /// shard unchanged. Omitted = unbounded (the classic form).
    Sig {
        /// Nested-parentheses tree shape.
        shape: String,
        /// How many hits.
        top: usize,
        /// Inclusive distance budget.
        within: Option<u64>,
    },
    /// `rangesig <parens-tree> <r>` — range query by a literal shape.
    RangeSig {
        /// Nested-parentheses tree shape.
        shape: String,
        /// Inclusive distance radius.
        radius: u64,
    },
    /// `add <graph.edges> <node>` — extract and index one signature.
    Add {
        /// Edge-list path, resolved server-side.
        path: String,
        /// Node whose signature to index.
        node: u32,
    },
    /// `addsig <parens-tree>` — index a literal tree shape.
    AddSig {
        /// Nested-parentheses tree shape.
        shape: String,
    },
    /// `putsig <id> <parens-tree>` — index a literal shape under an
    /// **explicit** id, replacing any live occupant. This is the write
    /// primitive a router uses: the coordinator owns id assignment, so
    /// the shard must not auto-assign.
    PutSig {
        /// Explicit id to write.
        id: u64,
        /// Nested-parentheses tree shape.
        shape: String,
    },
    /// `remove <id>` — drop a signature by id.
    Remove {
        /// The id to drop.
        id: u64,
    },
    /// `track <graph.edges>` — attach a mutating graph for deltas.
    Track {
        /// Edge-list path, resolved server-side.
        path: String,
    },
    /// `addedge <a> <b>` — tracked-graph edge insertion delta.
    AddEdge {
        /// First endpoint.
        a: u32,
        /// Second endpoint.
        b: u32,
    },
    /// `deledge <a> <b>` — tracked-graph edge removal delta.
    DelEdge {
        /// First endpoint.
        a: u32,
        /// Second endpoint.
        b: u32,
    },
    /// `stats` — multi-line serving summary.
    Stats,
    /// `epoch` — publication count + live size of the current snapshot.
    Epoch,
    /// `fingerprint` — epoch, live size, and the order-independent
    /// live-set fingerprint of the current snapshot (the anti-entropy
    /// probe: two replicas at the same epoch must answer the same hash).
    Fingerprint,
    /// `walsuffix <from_epoch>` — stream the attached WAL's records with
    /// epochs past `from_epoch`, so a stale replica can catch up from
    /// this peer. Read-only; requires a durable index whose log still
    /// reaches back to `from_epoch`.
    WalSuffix {
        /// The requester's current epoch (records at or below it are
        /// already applied there and are not sent).
        from_epoch: u64,
    },
    /// `catchup <host:port>` — dial `peer`, request the WAL suffix past
    /// this server's own epoch, and apply it through the journaled write
    /// path. The reply reports how many records were applied.
    CatchUp {
        /// Peer replica address to stream from.
        peer: String,
    },
    /// `help` — the command reference.
    Help,
    /// `save <path>` — persist the current index.
    Save {
        /// Destination path, resolved server-side.
        path: String,
    },
    /// `checkpoint` — snapshot + reset the WAL now.
    Checkpoint,
    /// `shutdown` — drain, checkpoint, exit cleanly.
    Shutdown,
    /// `quit` (or `exit`) — end this session only.
    Quit,
    /// `__panic` — fault-injection hook (only honored when the server
    /// config enables it).
    TestPanic,
}

impl Request {
    /// Parses one command line. `Ok(None)` for blank lines and `#`
    /// comments (they produce an empty reply, not an error); `Err` for
    /// anything that is not a well-formed command.
    pub fn parse_line(line: &str) -> Result<Option<Request>, ServerError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let bad_num = |what: &str, t: &str| ServerError::bad(format!("bad {what} {t:?}"));
        let req = match tokens.as_slice() {
            [] | ["#", ..] => return Ok(None),
            ["quit"] | ["exit"] => Request::Quit,
            ["shutdown"] => Request::Shutdown,
            ["help"] => Request::Help,
            ["stats"] => Request::Stats,
            ["epoch"] => Request::Epoch,
            ["fingerprint"] => Request::Fingerprint,
            ["walsuffix", from] => Request::WalSuffix {
                from_epoch: from.parse().map_err(|_| bad_num("epoch", from))?,
            },
            ["catchup", peer] => Request::CatchUp {
                peer: peer.to_string(),
            },
            ["checkpoint"] => Request::Checkpoint,
            ["__panic"] => Request::TestPanic,
            ["query", path, node] | ["query", path, node, _] => Request::Query {
                path: path.to_string(),
                node: node.parse().map_err(|_| bad_num("node id", node))?,
                top: match tokens.get(3) {
                    Some(t) => t.parse().map_err(|_| bad_num("top", t))?,
                    None => 5,
                },
            },
            ["range", path, node, radius] => Request::Range {
                path: path.to_string(),
                node: node.parse().map_err(|_| bad_num("node id", node))?,
                radius: radius.parse().map_err(|_| bad_num("radius", radius))?,
            },
            ["sig", shape] | ["sig", shape, _] | ["sig", shape, _, _] => {
                let top = match tokens.get(2) {
                    Some(t) => t.parse().map_err(|_| bad_num("top", t))?,
                    None => 5,
                };
                let within = match tokens.get(3) {
                    Some(t) => Some(
                        t.strip_prefix("within=")
                            .and_then(|b| b.parse().ok())
                            .ok_or_else(|| bad_num("budget", t))?,
                    ),
                    None => None,
                };
                Request::Sig {
                    shape: shape.to_string(),
                    top,
                    within,
                }
            }
            ["rangesig", shape, radius] => Request::RangeSig {
                shape: shape.to_string(),
                radius: radius.parse().map_err(|_| bad_num("radius", radius))?,
            },
            ["add", path, node] => Request::Add {
                path: path.to_string(),
                node: node.parse().map_err(|_| bad_num("node id", node))?,
            },
            ["addsig", shape] => Request::AddSig {
                shape: shape.to_string(),
            },
            ["putsig", id, shape] => Request::PutSig {
                id: id.parse().map_err(|_| bad_num("id", id))?,
                shape: shape.to_string(),
            },
            ["remove", id] => Request::Remove {
                id: id.parse().map_err(|_| bad_num("id", id))?,
            },
            ["track", path] => Request::Track {
                path: path.to_string(),
            },
            ["addedge", a, b] => Request::AddEdge {
                a: a.parse().map_err(|_| bad_num("node id", a))?,
                b: b.parse().map_err(|_| bad_num("node id", b))?,
            },
            ["deledge", a, b] => Request::DelEdge {
                a: a.parse().map_err(|_| bad_num("node id", a))?,
                b: b.parse().map_err(|_| bad_num("node id", b))?,
            },
            ["save", path] => Request::Save {
                path: path.to_string(),
            },
            _ => {
                return Err(ServerError::bad(format!(
                    "unrecognized command {line:?}; try `help`"
                )))
            }
        };
        Ok(Some(req))
    }

    /// Whether this request can mutate server state (or must run on the
    /// connection thread for lifecycle reasons). The batch protocol fans
    /// a frame out on the worker pool only when every line is a read.
    pub fn is_write(&self) -> bool {
        !matches!(
            self,
            Request::Query { .. }
                | Request::Range { .. }
                | Request::Sig { .. }
                | Request::RangeSig { .. }
                | Request::Stats
                | Request::Epoch
                | Request::Fingerprint
                | Request::WalSuffix { .. }
                | Request::Help
        )
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Query { path, node, top } => write!(f, "query {path} {node} {top}"),
            Request::Range { path, node, radius } => write!(f, "range {path} {node} {radius}"),
            Request::Sig { shape, top, within } => {
                write!(f, "sig {shape} {top}")?;
                if let Some(b) = within {
                    write!(f, " within={b}")?;
                }
                Ok(())
            }
            Request::RangeSig { shape, radius } => write!(f, "rangesig {shape} {radius}"),
            Request::Add { path, node } => write!(f, "add {path} {node}"),
            Request::AddSig { shape } => write!(f, "addsig {shape}"),
            Request::PutSig { id, shape } => write!(f, "putsig {id} {shape}"),
            Request::Remove { id } => write!(f, "remove {id}"),
            Request::Track { path } => write!(f, "track {path}"),
            Request::AddEdge { a, b } => write!(f, "addedge {a} {b}"),
            Request::DelEdge { a, b } => write!(f, "deledge {a} {b}"),
            Request::Stats => write!(f, "stats"),
            Request::Epoch => write!(f, "epoch"),
            Request::Fingerprint => write!(f, "fingerprint"),
            Request::WalSuffix { from_epoch } => write!(f, "walsuffix {from_epoch}"),
            Request::CatchUp { peer } => write!(f, "catchup {peer}"),
            Request::Help => write!(f, "help"),
            Request::Save { path } => write!(f, "save {path}"),
            Request::Checkpoint => write!(f, "checkpoint"),
            Request::Shutdown => write!(f, "shutdown"),
            Request::Quit => write!(f, "quit"),
            Request::TestPanic => write!(f, "__panic"),
        }
    }
}

impl FromStr for Request {
    type Err = ServerError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Request::parse_line(s)?
            .ok_or_else(|| ServerError::bad("blank line is not a request".to_string()))
    }
}

/// One query hit, as every index query returns it and as the wire
/// carries it: `hit id=<id> ned=<distance>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireHit {
    /// The indexed signature's stable id.
    pub id: u64,
    /// Exact NED distance to the query. Integral in practice (TED\* is),
    /// carried as `f64`, which holds every `u64` below `2^53` exactly.
    pub distance: f64,
}

/// One reply, parsed. The text form is the historical reply text; query
/// replies additionally carry the **publication epoch of the snapshot
/// that answered them** (`ok N hits epoch=E`) — the per-shard tag the
/// router's fleet epoch vector is built from. Old epoch-less hit
/// terminators still parse (as epoch 0).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Query hits plus the epoch of the answering snapshot.
    Hits {
        /// Epoch of the snapshot the query ran against.
        epoch: u64,
        /// Hits sorted by `(distance, id)`.
        hits: Vec<WireHit>,
    },
    /// `ok id=<id>` — an auto-assigned insert landed.
    Added {
        /// The id assigned.
        id: u64,
    },
    /// `ok put id=<id> fresh=<bool> epoch=<epoch>` — an explicit-id write
    /// landed; `epoch` is the publication it became visible at.
    Put {
        /// The id written.
        id: u64,
        /// Whether the id was newly created rather than replaced.
        fresh: bool,
        /// The epoch this write published as.
        epoch: u64,
    },
    /// `ok removed <id>` / `ok no such id <id>`.
    Removed {
        /// The id removed.
        id: u64,
        /// Whether a live signature was actually dropped.
        existed: bool,
    },
    /// `ok epoch=<epoch> len=<len>` — snapshot version + live size.
    Epoch {
        /// Publication count.
        epoch: u64,
        /// Live signatures.
        len: u64,
    },
    /// `ok fingerprint=<hex16> epoch=<epoch> len=<len>` — the
    /// anti-entropy probe reply: an order-independent hash of the live
    /// set. Two replicas at the same epoch must answer the same hash, or
    /// they have silently diverged.
    Fingerprint {
        /// Publication count of the fingerprinted snapshot.
        epoch: u64,
        /// Live signatures.
        len: u64,
        /// FNV-1a fold over the sorted live set.
        hash: u64,
    },
    /// A WAL suffix: `walrec <hex>` body lines (one encoded write batch
    /// each, in epoch order) terminated by
    /// `ok <N> wal base=<base> epoch=<epoch>`. `base` is the serving
    /// log's checkpoint epoch, `epoch` the peer's current epoch.
    WalChunk {
        /// The peer log's base tag (epoch of its last checkpoint).
        base: u64,
        /// The peer's current publication epoch.
        epoch: u64,
        /// Encoded write-batch payloads, in append (epoch) order.
        records: Vec<Vec<u8>>,
    },
    /// A multi-line informational body (`stats`, `help`) terminated by a
    /// bare `ok`. Body lines never start with `ok` or `error:`.
    Info {
        /// The body text (no trailing newline).
        body: String,
    },
    /// `ok` / `ok <msg>` — a generic acknowledgment (`save`, `track`,
    /// `checkpoint`, delta reports, `quit`'s `ok bye`, ...).
    Ok {
        /// The text after `ok ` (empty for a bare `ok`).
        msg: String,
    },
    /// `error: ...` — structured failure; see [`ServerError`].
    Error(ServerError),
}

impl Response {
    /// The epoch tag of this reply, when it carries one — the router
    /// feeds these into its fleet epoch vector.
    pub fn epoch(&self) -> Option<u64> {
        match self {
            Response::Hits { epoch, .. } | Response::Put { epoch, .. } => Some(*epoch),
            Response::Epoch { epoch, .. } | Response::Fingerprint { epoch, .. } => Some(*epoch),
            _ => None,
        }
    }

    /// Parses one complete reply (body lines + terminator line).
    pub fn parse(text: &str) -> Result<Response, ServerError> {
        let mut all = Self::parse_stream(text)?;
        match all.len() {
            1 => Ok(all.pop().expect("len checked")),
            n => Err(ServerError::Corrupt(format!(
                "expected one reply, found {n}"
            ))),
        }
    }

    /// Splits a batch reply frame (replies concatenated in request order)
    /// back into individual responses at terminator lines. Blank lines —
    /// the empty replies blank request lines produce — are skipped.
    pub fn parse_stream(text: &str) -> Result<Vec<Response>, ServerError> {
        let mut out = Vec::new();
        let mut body: Vec<&str> = Vec::new();
        for line in text.lines() {
            if line.is_empty() && body.is_empty() {
                continue;
            }
            if let Some(tail) = line.strip_prefix("error: ") {
                if !body.is_empty() {
                    return Err(ServerError::Corrupt(
                        "body lines before an error terminator".to_string(),
                    ));
                }
                out.push(Response::Error(ServerError::parse_tail(tail)));
            } else if line == "ok" || line.starts_with("ok ") {
                out.push(Self::parse_one(&body, line)?);
                body.clear();
            } else {
                body.push(line);
            }
        }
        if !body.is_empty() {
            return Err(ServerError::Corrupt(format!(
                "reply ended without a terminator line ({} body line(s) pending)",
                body.len()
            )));
        }
        Ok(out)
    }

    /// Parses one reply from its body lines and `ok`-terminator.
    fn parse_one(body: &[&str], terminator: &str) -> Result<Response, ServerError> {
        let corrupt = |why: String| ServerError::Corrupt(why);
        let rest = terminator.strip_prefix("ok ").unwrap_or("");
        // Hit bodies pair with a `N hits` terminator; anything else with
        // a non-empty body is an informational reply ending in bare `ok`.
        let looks_like_hits =
            rest.split_whitespace().nth(1) == Some("hits") || body.iter().any(|l| is_hit_line(l));
        if looks_like_hits {
            let mut fields = rest.split_whitespace();
            let count: usize = fields
                .next()
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| corrupt(format!("bad hits terminator {terminator:?}")))?;
            if fields.next() != Some("hits") {
                return Err(corrupt(format!("bad hits terminator {terminator:?}")));
            }
            let epoch = match fields.next() {
                // Pre-epoch servers answered a bare `ok N hits`.
                None => 0,
                Some(tag) => tag
                    .strip_prefix("epoch=")
                    .and_then(|e| e.parse().ok())
                    .ok_or_else(|| corrupt(format!("bad hits terminator {terminator:?}")))?,
            };
            let hits = body
                .iter()
                .map(|l| parse_hit_line(l))
                .collect::<Result<Vec<WireHit>, ServerError>>()?;
            if hits.len() != count {
                return Err(corrupt(format!(
                    "terminator claims {count} hits but {} hit line(s) precede it",
                    hits.len()
                )));
            }
            return Ok(Response::Hits { epoch, hits });
        }
        // WAL chunks pair `walrec <hex>` body lines with a
        // `ok <N> wal base=<b> epoch=<e>` terminator; like hit replies
        // they are recognized by terminator shape so a zero-record chunk
        // (no body at all) still parses as a chunk.
        let looks_like_wal =
            rest.split_whitespace().nth(1) == Some("wal") || body.iter().any(|l| is_walrec_line(l));
        if looks_like_wal {
            let mut fields = rest.split_whitespace();
            let count: usize = fields
                .next()
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| corrupt(format!("bad wal terminator {terminator:?}")))?;
            if fields.next() != Some("wal") {
                return Err(corrupt(format!("bad wal terminator {terminator:?}")));
            }
            let base = fields
                .next()
                .and_then(|t| t.strip_prefix("base=")?.parse().ok());
            let epoch = fields
                .next()
                .and_then(|t| t.strip_prefix("epoch=")?.parse().ok());
            let (Some(base), Some(epoch), None) = (base, epoch, fields.next()) else {
                return Err(corrupt(format!("bad wal terminator {terminator:?}")));
            };
            let records = body
                .iter()
                .map(|l| {
                    l.strip_prefix("walrec ")
                        .and_then(hex_decode)
                        .ok_or_else(|| corrupt(format!("bad wal record line {l:?}")))
                })
                .collect::<Result<Vec<Vec<u8>>, ServerError>>()?;
            if records.len() != count {
                return Err(corrupt(format!(
                    "terminator claims {count} wal record(s) but {} precede it",
                    records.len()
                )));
            }
            return Ok(Response::WalChunk {
                base,
                epoch,
                records,
            });
        }
        if !body.is_empty() {
            if !rest.is_empty() {
                return Err(corrupt(format!(
                    "informational body terminated by {terminator:?}, expected bare `ok`"
                )));
            }
            return Ok(Response::Info {
                body: body.join("\n"),
            });
        }
        if let Some(id) = rest.strip_prefix("id=") {
            if let Ok(id) = id.parse() {
                return Ok(Response::Added { id });
            }
        }
        if let Some(put) = rest.strip_prefix("put ") {
            let mut f = put.split_whitespace();
            let id = f.next().and_then(|t| t.strip_prefix("id=")?.parse().ok());
            let fresh = f
                .next()
                .and_then(|t| t.strip_prefix("fresh=")?.parse().ok());
            let epoch = f
                .next()
                .and_then(|t| t.strip_prefix("epoch=")?.parse().ok());
            return match (id, fresh, epoch, f.next()) {
                (Some(id), Some(fresh), Some(epoch), None) => {
                    Ok(Response::Put { id, fresh, epoch })
                }
                _ => Err(corrupt(format!("bad put terminator {terminator:?}"))),
            };
        }
        if let Some(id) = rest.strip_prefix("removed ") {
            if let Ok(id) = id.parse() {
                return Ok(Response::Removed { id, existed: true });
            }
        }
        if let Some(id) = rest.strip_prefix("no such id ") {
            if let Ok(id) = id.parse() {
                return Ok(Response::Removed { id, existed: false });
            }
        }
        if let Some(tail) = rest.strip_prefix("epoch=") {
            let mut f = tail.split_whitespace();
            let epoch = f.next().and_then(|e| e.parse().ok());
            let len = f.next().and_then(|t| t.strip_prefix("len=")?.parse().ok());
            if let (Some(epoch), Some(len), None) = (epoch, len, f.next()) {
                return Ok(Response::Epoch { epoch, len });
            }
        }
        if let Some(tail) = rest.strip_prefix("fingerprint=") {
            let mut f = tail.split_whitespace();
            let hash = f.next().and_then(|h| u64::from_str_radix(h, 16).ok());
            let epoch = f
                .next()
                .and_then(|t| t.strip_prefix("epoch=")?.parse().ok());
            let len = f.next().and_then(|t| t.strip_prefix("len=")?.parse().ok());
            if let (Some(hash), Some(epoch), Some(len), None) = (hash, epoch, len, f.next()) {
                return Ok(Response::Fingerprint { epoch, len, hash });
            }
        }
        Ok(Response::Ok {
            msg: rest.to_string(),
        })
    }
}

fn is_hit_line(line: &str) -> bool {
    line.starts_with("hit id=")
}

fn is_walrec_line(line: &str) -> bool {
    line.starts_with("walrec ")
}

/// Lowercase hex encoding for WAL record payloads on the wire. The text
/// protocol is line-oriented UTF-8, so raw record bytes cannot ride it.
fn hex_encode(bytes: &[u8]) -> String {
    use fmt::Write;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(s, "{b:02x}").expect("write to String");
    }
    s
}

/// Inverse of [`hex_encode`]. `None` on odd length or non-hex bytes.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.is_ascii() || !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

fn parse_hit_line(line: &str) -> Result<WireHit, ServerError> {
    let bad = || ServerError::Corrupt(format!("bad hit line {line:?}"));
    let mut fields = line.split_whitespace();
    if fields.next() != Some("hit") {
        return Err(bad());
    }
    let id = fields
        .next()
        .and_then(|t| t.strip_prefix("id=")?.parse().ok())
        .ok_or_else(bad)?;
    let distance = fields
        .next()
        .and_then(|t| t.strip_prefix("ned=")?.parse().ok())
        .ok_or_else(bad)?;
    if fields.next().is_some() {
        return Err(bad());
    }
    Ok(WireHit { id, distance })
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Hits { epoch, hits } => {
                for h in hits {
                    writeln!(f, "hit id={} ned={}", h.id, h.distance)?;
                }
                write!(f, "ok {} hits epoch={epoch}", hits.len())
            }
            Response::Added { id } => write!(f, "ok id={id}"),
            Response::Put { id, fresh, epoch } => {
                write!(f, "ok put id={id} fresh={fresh} epoch={epoch}")
            }
            Response::Removed { id, existed: true } => write!(f, "ok removed {id}"),
            Response::Removed { id, existed: false } => write!(f, "ok no such id {id}"),
            Response::Epoch { epoch, len } => write!(f, "ok epoch={epoch} len={len}"),
            Response::Fingerprint { epoch, len, hash } => {
                write!(f, "ok fingerprint={hash:016x} epoch={epoch} len={len}")
            }
            Response::WalChunk {
                base,
                epoch,
                records,
            } => {
                for r in records {
                    writeln!(f, "walrec {}", hex_encode(r))?;
                }
                write!(f, "ok {} wal base={base} epoch={epoch}", records.len())
            }
            Response::Info { body } => write!(f, "{body}\nok"),
            Response::Ok { msg } if msg.is_empty() => write!(f, "ok"),
            Response::Ok { msg } => write!(f, "ok {msg}"),
            Response::Error(e) => write!(f, "{e}"),
        }
    }
}

impl FromStr for Response {
    type Err = ServerError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Response::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn old_text_forms_parse_to_the_same_request() {
        // The pre-typed-protocol forms (no explicit defaults) and their
        // canonical Display forms must mean the same request.
        for (old, canonical) in [
            ("query g.edges 7", "query g.edges 7 5"),
            ("sig ((()())) ", "sig ((()())) 5"),
            ("exit", "quit"),
        ] {
            let a: Request = old.parse().expect("old form parses");
            let b: Request = canonical.parse().expect("canonical form parses");
            assert_eq!(a, b, "{old:?} vs {canonical:?}");
            assert_eq!(b.to_string(), canonical.trim());
        }
    }

    #[test]
    fn request_display_round_trips() {
        let reqs = [
            Request::Query {
                path: "g.edges".into(),
                node: 3,
                top: 9,
            },
            Request::Sig {
                shape: "((())())".into(),
                top: 4,
                within: Some(7),
            },
            Request::PutSig {
                id: 17,
                shape: "(())".into(),
            },
            Request::AddEdge { a: 1, b: 2 },
            Request::Checkpoint,
        ];
        for r in reqs {
            let back: Request = r.to_string().parse().expect("round trip");
            assert_eq!(back, r);
        }
    }

    #[test]
    fn response_stream_splits_on_terminators() {
        let text = "hit id=3 ned=0\nhit id=9 ned=2\nok 2 hits epoch=5\nok id=12\nerror: overloaded: busy\nok bye";
        let got = Response::parse_stream(text).expect("parses");
        assert_eq!(got.len(), 4);
        assert_eq!(
            got[0],
            Response::Hits {
                epoch: 5,
                hits: vec![
                    WireHit {
                        id: 3,
                        distance: 0.0
                    },
                    WireHit {
                        id: 9,
                        distance: 2.0
                    }
                ]
            }
        );
        assert_eq!(got[1], Response::Added { id: 12 });
        assert_eq!(
            got[2],
            Response::Error(ServerError::Overloaded("busy".into()))
        );
        assert_eq!(got[3], Response::Ok { msg: "bye".into() });
    }

    #[test]
    fn epochless_hits_terminator_still_parses() {
        let r = Response::parse("ok 0 hits").expect("old form");
        assert_eq!(
            r,
            Response::Hits {
                epoch: 0,
                hits: vec![]
            }
        );
    }

    #[test]
    fn error_taxonomy_round_trips_and_classifies() {
        let errs = [
            ServerError::bad("unrecognized command"),
            ServerError::Overloaded("3/3 connections; retry later".into()),
            ServerError::ShuttingDown("draining".into()),
            ServerError::Io("connection reset".into()),
            ServerError::CatchingUp("replaying 12 record(s) from a peer".into()),
            ServerError::Corrupt("checksum mismatch".into()),
        ];
        for e in errs {
            let r: Response = e.to_string().parse().expect("parses");
            assert_eq!(r, Response::Error(e.clone()));
            match e {
                ServerError::BadRequest(_) | ServerError::Corrupt(_) => {
                    assert!(!e.is_retryable())
                }
                _ => assert!(e.is_retryable()),
            }
        }
    }

    #[test]
    fn replication_forms_round_trip() {
        for r in [
            Request::Fingerprint,
            Request::WalSuffix { from_epoch: 42 },
            Request::CatchUp {
                peer: "127.0.0.1:7979".into(),
            },
        ] {
            let back: Request = r.to_string().parse().expect("request round trip");
            assert_eq!(back, r);
        }
        for resp in [
            Response::Fingerprint {
                epoch: 9,
                len: 4000,
                hash: 0x00ab_cdef_0123_4567,
            },
            Response::WalChunk {
                base: 3,
                epoch: 7,
                records: vec![vec![0, 1, 2, 255], vec![0x4e]],
            },
            // Zero records: no body lines at all, still a chunk.
            Response::WalChunk {
                base: 0,
                epoch: 0,
                records: vec![],
            },
        ] {
            let back: Response = resp.to_string().parse().expect("response round trip");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn wal_chunk_record_count_is_checked() {
        let err = Response::parse("walrec 00ff\nok 2 wal base=1 epoch=5").expect_err("mismatch");
        assert!(matches!(err, ServerError::Corrupt(_)), "{err}");
        let err = Response::parse("walrec zz\nok 1 wal base=1 epoch=5").expect_err("bad hex");
        assert!(matches!(err, ServerError::Corrupt(_)), "{err}");
    }

    #[test]
    fn hex_codec_round_trips() {
        for bytes in [
            vec![],
            vec![0u8],
            vec![0xde, 0xad, 0xbe, 0xef],
            vec![255; 33],
        ] {
            assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes));
        }
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("g0"), None, "non-hex");
    }
}
