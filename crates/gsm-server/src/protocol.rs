//! The line-framed wire protocol: one JSON object per `\n`-terminated
//! line, in both directions.
//!
//! # Requests (client → server)
//!
//! ```json
//! {"op":"register","query":"?u -likes-> ?p; ?p -by-> ?a"}
//! {"op":"unregister","id":3}
//! {"op":"push","edges":[["+","likes","u1","p1"],["-","likes","u1","p1"]]}
//! {"op":"flush"}
//! {"op":"stats"}
//! {"op":"ping"}
//! ```
//!
//! # Replies and notifications (server → client)
//!
//! Every request gets exactly one reply frame `{"reply":"<op>","ok":…}`,
//! in request order. Interleaved with replies, the server pushes one
//! notification frame per (completed batch × matched query) the
//! connection owns:
//!
//! ```json
//! {"reply":"register","ok":true,"id":3,"epoch":7}
//! {"reply":"register","ok":false,"error":"missing '-label->' in `x`"}
//! {"notify":true,"id":3,"new":2,"retracted":0}
//! ```
//!
//! `epoch` in the `register`/`unregister` replies is the epoch at which
//! the lifecycle change takes effect: the operation is queued and applied
//! at the next pipeline drain boundary, so edges pushed before that
//! boundary are never seen by a newly registered query.
//!
//! # Decoding and encoding without a tree
//!
//! [`Request::decode`] walks a line once, member by member, and decodes
//! each field where it stands: `edges` goes straight into [`EdgeOp`]s,
//! copying each label, source and target once, and every other member is
//! still validated by the JSON grammar. The accepted language is that of
//! [`json::parse`] followed by field lookups: the whole line must be valid
//! JSON, the first occurrence of a duplicate key wins, and a member is
//! type-checked only by the op that reads it. Push lines, notifications
//! and replies are written straight into their `String`.

use std::borrow::Cow;

use crate::json::{self, num, obj, Json};

/// One edge operation inside a `push` request: `["+"|"-", label, src, tgt]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeOp {
    /// True for a retraction (`"-"`), false for an insertion (`"+"`).
    pub retract: bool,
    /// Edge label.
    pub label: String,
    /// Source vertex.
    pub src: String,
    /// Target vertex.
    pub tgt: String,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a pattern (compact `src -label-> tgt; …` syntax); queued
    /// until the next epoch boundary.
    Register {
        /// Pattern text.
        query: String,
    },
    /// Unregister a query this connection owns; queued until the next
    /// epoch boundary.
    Unregister {
        /// The id the `register` reply handed out.
        id: u32,
    },
    /// Append signed edge operations to the shared stream.
    Push {
        /// The edge operations, in order.
        edges: Vec<EdgeOp>,
    },
    /// Force a full pipeline drain (an epoch boundary): all buffered
    /// edges are answered and all queued lifecycle operations applied
    /// before the reply is sent.
    Flush,
    /// Engine statistics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
}

impl Request {
    /// Decodes one request line in a single pass (see the module docs for
    /// the accepted language). Errors are protocol violations the server
    /// answers with an `ok:false` reply.
    pub fn decode(line: &str) -> Result<Request, String> {
        let bytes = line.as_bytes();
        let mut pos = 0;
        json::skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b'{') {
            // Not an object, so it has no `op` — once it parses at all.
            json::parse(line)?;
            return Err("missing string `op` field".into());
        }
        // `None` until the key is first seen; then the inner `None` / `Err`
        // records a member of the wrong type, reported only if the op
        // reads that member.
        let mut op = None;
        let mut query = None;
        let mut id = None;
        let mut edges = None;
        json::parse_object(bytes, &mut pos, |key, pos| {
            match &*key {
                "op" if op.is_none() => op = Some(string_at(bytes, pos)?),
                "query" if query.is_none() => query = Some(string_at(bytes, pos)?),
                "id" if id.is_none() => {
                    let value = json::parse_value(bytes, pos)?;
                    id = Some(value.as_u64().filter(|&id| id <= u32::MAX as u64));
                }
                "edges" if edges.is_none() => edges = Some(edges_at(bytes, pos)?),
                _ => {
                    json::parse_value(bytes, pos)?;
                }
            }
            Ok(())
        })?;
        json::expect_end(bytes, &mut pos)?;

        match op.flatten().as_deref().ok_or("missing string `op` field")? {
            "register" => {
                let query = query
                    .flatten()
                    .ok_or("register needs a string `query` field")?;
                Ok(Request::Register {
                    query: query.into_owned(),
                })
            }
            "unregister" => {
                let id = id
                    .flatten()
                    .ok_or("unregister needs an integer `id` field")?;
                Ok(Request::Unregister { id: id as u32 })
            }
            "push" => {
                let edges = edges.ok_or("push needs an array `edges` field")??;
                Ok(Request::Push { edges })
            }
            "flush" => Ok(Request::Flush),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Encodes the request as a wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let frame = match self {
            Request::Register { query } => obj(vec![
                ("op", Json::Str("register".into())),
                ("query", Json::Str(query.clone())),
            ]),
            Request::Unregister { id } => obj(vec![
                ("op", Json::Str("unregister".into())),
                ("id", num(*id as u64)),
            ]),
            Request::Push { edges } => {
                return encode_push(
                    edges
                        .iter()
                        .map(|e| (e.retract, e.label.as_str(), e.src.as_str(), e.tgt.as_str())),
                )
            }
            Request::Flush => obj(vec![("op", Json::Str("flush".into()))]),
            Request::Stats => obj(vec![("op", Json::Str("stats".into()))]),
            Request::Ping => obj(vec![("op", Json::Str("ping".into()))]),
        };
        frame.to_string()
    }

    /// The `reply` tag for this request's answer frame.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Register { .. } => "register",
            Request::Unregister { .. } => "unregister",
            Request::Push { .. } => "push",
            Request::Flush => "flush",
            Request::Stats => "stats",
            Request::Ping => "ping",
        }
    }
}

/// A request member decoded where it stands: the outer `Err` is a syntax
/// error, which fails the whole line; the inner one is a well-formed value
/// of the wrong shape, which fails only an op that reads it.
type Member<T> = Result<Result<T, String>, String>;

/// The string at `pos`, or `None` once a value of another type has been
/// validated.
fn string_at<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Option<Cow<'a, str>>, String> {
    if bytes.get(*pos) == Some(&b'"') {
        json::parse_str(bytes, pos).map(Some)
    } else {
        json::parse_value(bytes, pos).map(|_| None)
    }
}

/// The `edges` member at `pos`. The first malformed edge decides the shape
/// error; the edges after it are only validated.
fn edges_at(bytes: &[u8], pos: &mut usize) -> Member<Vec<EdgeOp>> {
    if bytes.get(*pos) != Some(&b'[') {
        json::parse_value(bytes, pos)?;
        return Ok(Err("push needs an array `edges` field".into()));
    }
    let mut edges = Ok(Vec::new());
    json::parse_array(bytes, pos, |pos| {
        match edge_at(bytes, pos)? {
            Ok(edge) => {
                if let Ok(decoded) = &mut edges {
                    decoded.push(edge);
                }
            }
            Err(e) => {
                if edges.is_ok() {
                    edges = Err(e);
                }
            }
        }
        Ok(())
    })?;
    Ok(edges)
}

/// One `[sign, label, src, tgt]` element of `edges`. Shape errors are
/// checked in a fixed order: not an array, then the element count, then
/// each element in turn.
fn edge_at(bytes: &[u8], pos: &mut usize) -> Member<EdgeOp> {
    if bytes.get(*pos) != Some(&b'[') {
        json::parse_value(bytes, pos)?;
        return Ok(Err("edge must be an array".into()));
    }
    let mut parts: [Option<Cow<str>>; 4] = Default::default();
    let mut len = 0;
    json::parse_array(bytes, pos, |pos| {
        let part = string_at(bytes, pos)?;
        if let Some(slot) = parts.get_mut(len) {
            *slot = part;
        }
        len += 1;
        Ok(())
    })?;
    if len != 4 {
        return Ok(Err(format!(
            "edge must be [sign, label, src, tgt], got {len} elements"
        )));
    }
    Ok(edge_from(parts))
}

/// Builds an edge from its four parts (`None` where a part is not a
/// string), checking them in order.
fn edge_from([sign, label, src, tgt]: [Option<Cow<str>>; 4]) -> Result<EdgeOp, String> {
    let retract = match sign.as_deref() {
        Some("+") => false,
        Some("-") => true,
        Some(other) => return Err(format!("edge sign must be `+` or `-`, got `{other}`")),
        None => return Err("edge sign must be a string".into()),
    };
    let text = |part: Option<Cow<str>>, what: &str| {
        part.map(Cow::into_owned)
            .ok_or_else(|| format!("edge {what} must be a string"))
    };
    Ok(EdgeOp {
        retract,
        label: text(label, "label")?,
        src: text(src, "src")?,
        tgt: text(tgt, "tgt")?,
    })
}

/// Writes a `push` request line straight from borrowed edges. Both
/// [`Request::encode`] and [`crate::Client::push`] send exactly this.
pub(crate) fn encode_push<'a>(
    edges: impl Iterator<Item = (bool, &'a str, &'a str, &'a str)> + Clone,
) -> String {
    // Quotes, commas and brackets add 16 bytes per edge; the slack covers
    // the frame and the newline a client appends.
    let size: usize = edges
        .clone()
        .map(|(_, label, src, tgt)| label.len() + src.len() + tgt.len() + 16)
        .sum();
    let mut out = String::with_capacity(size + 32);
    out.push_str(r#"{"op":"push","edges":["#);
    for (i, (retract, label, src, tgt)) in edges.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(if retract { r#"["-","# } else { r#"["+","# });
        json::write_escaped(&mut out, label);
        out.push(',');
        json::write_escaped(&mut out, src);
        out.push(',');
        json::write_escaped(&mut out, tgt);
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// `{"reply":<op>,"ok":<ok>`: the head every reply frame shares.
fn reply_head(op: &str, ok: bool) -> String {
    let mut out = String::with_capacity(64);
    out.push_str(r#"{"reply":"#);
    json::write_escaped(&mut out, op);
    out.push_str(if ok {
        r#","ok":true"#
    } else {
        r#","ok":false"#
    });
    out
}

/// Builds a success reply frame, with extra fields appended after `ok`.
pub fn reply_ok(op: &str, extra: Vec<(&str, Json)>) -> String {
    let mut out = reply_head(op, true);
    for (key, value) in extra {
        out.push(',');
        json::write_escaped(&mut out, key);
        out.push(':');
        value.write(&mut out);
    }
    out.push('}');
    out
}

/// Builds an error reply frame.
pub fn reply_err(op: &str, error: &str) -> String {
    let mut out = reply_head(op, false);
    out.push_str(r#","error":"#);
    json::write_escaped(&mut out, error);
    out.push('}');
    out
}

/// Builds a per-query match notification frame.
pub fn notify(id: u32, new: u64, retracted: u64) -> String {
    let mut out = String::with_capacity(64);
    out.push_str(r#"{"notify":true,"id":"#);
    json::write_num(&mut out, id as f64);
    out.push_str(r#","new":"#);
    json::write_num(&mut out, new as f64);
    out.push_str(r#","retracted":"#);
    json::write_num(&mut out, retracted as f64);
    out.push('}');
    out
}

/// A decoded server → client frame, as seen by [`crate::client::Client`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// The reply to one request.
    Reply {
        /// Which op this answers.
        op: String,
        /// Success flag.
        ok: bool,
        /// The full frame, for op-specific fields (`id`, `epoch`, …).
        body: Json,
    },
    /// An asynchronous match notification.
    Notify {
        /// The query id.
        id: u32,
        /// New embeddings reported for this batch.
        new: u64,
        /// Retracted embeddings reported for this batch.
        retracted: u64,
    },
}

impl ServerFrame {
    /// Decodes one server → client line.
    pub fn decode(line: &str) -> Result<ServerFrame, String> {
        let frame = json::parse(line)?;
        if frame.get("notify").and_then(Json::as_bool) == Some(true) {
            let field = |key: &str| {
                frame
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or(format!("notify missing integer `{key}`"))
            };
            return Ok(ServerFrame::Notify {
                id: field("id")? as u32,
                new: field("new")?,
                retracted: field("retracted")?,
            });
        }
        let op = frame
            .get("reply")
            .and_then(Json::as_str)
            .ok_or("frame is neither a reply nor a notification")?
            .to_string();
        let ok = frame
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("reply missing bool `ok`")?;
        Ok(ServerFrame::Reply {
            op,
            ok,
            body: frame,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let cases = vec![
            Request::Register {
                query: "?u -likes-> ?p".into(),
            },
            Request::Unregister { id: 7 },
            Request::Push {
                edges: vec![
                    EdgeOp {
                        retract: false,
                        label: "likes".into(),
                        src: "u1".into(),
                        tgt: "p1".into(),
                    },
                    EdgeOp {
                        retract: true,
                        label: "likes".into(),
                        src: "u1".into(),
                        tgt: "p1".into(),
                    },
                ],
            },
            Request::Flush,
            Request::Stats,
            Request::Ping,
        ];
        for case in cases {
            let line = case.encode();
            assert_eq!(Request::decode(&line).unwrap(), case, "round trip {line}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("{}", "missing string `op`"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"register"}"#, "string `query`"),
            (r#"{"op":"unregister","id":"x"}"#, "integer `id`"),
            (r#"{"op":"unregister","id":4294967296}"#, "integer `id`"),
            (r#"{"op":"push"}"#, "array `edges`"),
            (r#"{"op":"push","edges":[["likes","a","b"]]}"#, "3 elements"),
            (r#"{"op":"push","edges":[["*","l","a","b"]]}"#, "sign"),
            (
                r#"{"op":"push","edges":[["+","l","a",3]]}"#,
                "must be a string",
            ),
            ("not json", "invalid"),
        ] {
            let err = Request::decode(line).unwrap_err();
            assert!(
                err.contains(needle),
                "error for {line} was `{err}`, wanted `{needle}`"
            );
        }
    }

    #[test]
    fn members_are_read_only_by_the_op_that_needs_them() {
        let ok = [
            // Junk in a member the op does not read.
            (
                r#"{"edges":[["*",1]],"op":"register","query":"q","id":"x"}"#,
                Request::Register { query: "q".into() },
            ),
            // The first occurrence of a duplicate key wins.
            (r#"{"op":"ping","op":"warp"}"#, Request::Ping),
            (
                r#"{"op":"unregister","id":3,"id":"x"}"#,
                Request::Unregister { id: 3 },
            ),
            // Escaped keys and values decode before they are compared.
            (
                r#" { "op" : "push" , "edges" : [ [ "-" , "a\"b" , "é" , "😀" ] ] } "#,
                Request::Push {
                    edges: vec![EdgeOp {
                        retract: true,
                        label: "a\"b".into(),
                        src: "é".into(),
                        tgt: "😀".into(),
                    }],
                },
            ),
        ];
        for (line, want) in ok {
            assert_eq!(Request::decode(line), Ok(want), "{line}");
        }
        for (line, error) in [
            (r#"{"op":1,"op":"ping"}"#, "missing string `op` field"),
            (r#"[{"op":"ping"}]"#, "missing string `op` field"),
            // A syntax error anywhere beats a shape error earlier on.
            (
                r#"{"op":"push","edges":[["*","l","a","b"]],"x":tru}"#,
                "invalid literal at byte 45",
            ),
            (
                r#"{"op":"push","edges":[["+","l","a"],["*","l","a","b"]]}"#,
                "edge must be [sign, label, src, tgt], got 3 elements",
            ),
            (
                r#"{"op":"push","edges":[["+",1,2],5]}"#,
                "edge must be [sign, label, src, tgt], got 3 elements",
            ),
            (r#"{"op":"push","edges":[5]}"#, "edge must be an array"),
            (
                r#"{"op":"push","edges":[[1,"l","a","b"]]}"#,
                "edge sign must be a string",
            ),
            (
                r#"{"op":"push","edges":[["+","l",[],"b"]]}"#,
                "edge src must be a string",
            ),
        ] {
            assert_eq!(Request::decode(line), Err(error.to_string()), "{line}");
        }
    }

    #[test]
    fn frames_written_without_a_tree_match_the_tree_encoding() {
        const MAX_EXACT: u64 = 1 << 53;
        for id in [0, 1, 7, 4_294_967_295] {
            for count in [0, 1, 42, MAX_EXACT - 1, MAX_EXACT, MAX_EXACT + 1, u64::MAX] {
                let tree = obj(vec![
                    ("notify", Json::Bool(true)),
                    ("id", num(id as u64)),
                    ("new", num(count)),
                    ("retracted", num(MAX_EXACT + 2)),
                ]);
                assert_eq!(notify(id, count, MAX_EXACT + 2), tree.to_string());
                let extra = || vec![("id", num(id as u64)), ("epoch", num(count))];
                let mut members = vec![
                    ("reply", Json::Str("register".into())),
                    ("ok", Json::Bool(true)),
                ];
                members.extend(extra());
                assert_eq!(reply_ok("register", extra()), obj(members).to_string());
            }
        }
        assert_eq!(
            reply_ok("stats", vec![("engine", Json::Str("TRIC+".into()))]),
            r#"{"reply":"stats","ok":true,"engine":"TRIC+"}"#
        );
        assert_eq!(reply_ok("ping", vec![]), r#"{"reply":"ping","ok":true}"#);
        let error = "missing '-label->' in `x \"y\"`\\\n\u{1}";
        assert_eq!(
            reply_err("register", error),
            obj(vec![
                ("reply", Json::Str("register".into())),
                ("ok", Json::Bool(false)),
                ("error", Json::Str(error.into())),
            ])
            .to_string()
        );
    }

    /// The decoder this module had before the one-pass walk: parse a tree,
    /// then look the fields up. Kept here only as the differential oracle.
    fn tree_decode(line: &str) -> Result<Request, String> {
        let frame = json::parse(line)?;
        let op = frame
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string `op` field")?;
        match op {
            "register" => {
                let query = frame
                    .get("query")
                    .and_then(Json::as_str)
                    .ok_or("register needs a string `query` field")?;
                Ok(Request::Register {
                    query: query.to_string(),
                })
            }
            "unregister" => {
                let id = frame
                    .get("id")
                    .and_then(Json::as_u64)
                    .filter(|&id| id <= u32::MAX as u64)
                    .ok_or("unregister needs an integer `id` field")?;
                Ok(Request::Unregister { id: id as u32 })
            }
            "push" => {
                let edges = frame
                    .get("edges")
                    .and_then(Json::as_arr)
                    .ok_or("push needs an array `edges` field")?;
                edges
                    .iter()
                    .map(tree_edge)
                    .collect::<Result<_, _>>()
                    .map(|edges| Request::Push { edges })
            }
            "flush" => Ok(Request::Flush),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    fn tree_edge(edge: &Json) -> Result<EdgeOp, String> {
        let parts = edge.as_arr().ok_or("edge must be an array")?;
        if parts.len() != 4 {
            return Err(format!(
                "edge must be [sign, label, src, tgt], got {} elements",
                parts.len()
            ));
        }
        let text = |i: usize, what: &str| -> Result<String, String> {
            parts[i]
                .as_str()
                .map(str::to_string)
                .ok_or(format!("edge {what} must be a string"))
        };
        let retract = match text(0, "sign")?.as_str() {
            "+" => false,
            "-" => true,
            other => return Err(format!("edge sign must be `+` or `-`, got `{other}`")),
        };
        Ok(EdgeOp {
            retract,
            label: text(1, "label")?,
            src: text(2, "src")?,
            tgt: text(3, "tgt")?,
        })
    }

    /// The tree encoding of a push line, as `Request::encode` built it
    /// before it wrote the line directly.
    fn tree_encode_push(edges: &[EdgeOp]) -> String {
        let encoded = edges
            .iter()
            .map(|e| {
                Json::Arr(vec![
                    Json::Str(if e.retract { "-" } else { "+" }.into()),
                    Json::Str(e.label.clone()),
                    Json::Str(e.src.clone()),
                    Json::Str(e.tgt.clone()),
                ])
            })
            .collect();
        obj(vec![
            ("op", Json::Str("push".into())),
            ("edges", Json::Arr(encoded)),
        ])
        .to_string()
    }

    /// A splitmix64 stream: the random choices of one generated case.
    struct Noise(u64);

    impl Noise {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }

        /// Whitespace between two tokens, usually none.
        fn ws(&mut self) -> &'static str {
            self.pick(&["", "", "", " ", "\t", "\n", "\r\n", "  "])
        }

        /// A string literal mixing plain text, escapes, surrogate pairs and
        /// raw multi-byte UTF-8.
        fn string(&mut self) -> String {
            let mut s = String::from("\"");
            for _ in 0..self.below(4) {
                s.push_str(self.pick(&[
                    "a",
                    "likes",
                    "u1",
                    "+",
                    "-",
                    " ",
                    r#"\""#,
                    r"\\",
                    r"\/",
                    r"\n",
                    r"\t",
                    r"\u00e9",
                    "é",
                    r"\ud83d\ude00",
                    "😀",
                    "中",
                    r"\u002b",
                ]));
            }
            s.push('"');
            s
        }

        fn sign(&mut self) -> String {
            match self.below(8) {
                0 => self.string(),
                1 => r#""\u002b""#.into(),
                2 => r#""*""#.into(),
                n => if n % 2 == 0 { r#""+""# } else { r#""-""# }.into(),
            }
        }

        /// Any JSON value, nested up to `depth` levels.
        fn junk(&mut self, depth: usize) -> String {
            match self.below(if depth == 0 { 4 } else { 6 }) {
                0 => self
                    .pick(&["null", "true", "false", "0", "-1.5e3", "42", "1E+2"])
                    .into(),
                1 | 2 => self.string(),
                3 => self.pick(&["[]", "{}", "-0"]).into(),
                4 => {
                    let items: Vec<String> =
                        (0..self.below(4)).map(|_| self.junk(depth - 1)).collect();
                    self.array(&items)
                }
                _ => {
                    let members: Vec<(String, String)> = (0..self.below(4))
                        .map(|_| (self.string(), self.junk(depth - 1)))
                        .collect();
                    self.object(&members)
                }
            }
        }

        fn array(&mut self, items: &[String]) -> String {
            let mut s = format!("[{}", self.ws());
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    s.push_str(&format!("{},{}", self.ws(), self.ws()));
                }
                s.push_str(item);
            }
            s.push_str(&format!("{}]", self.ws()));
            s
        }

        fn object(&mut self, members: &[(String, String)]) -> String {
            let mut s = format!("{{{}", self.ws());
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    s.push_str(&format!("{},{}", self.ws(), self.ws()));
                }
                s.push_str(&format!("{key}{}:{}{value}", self.ws(), self.ws()));
            }
            s.push_str(&format!("{}}}", self.ws()));
            s
        }

        /// One `edges` element: mostly well formed, sometimes not.
        fn edge(&mut self) -> String {
            let mut parts = vec![self.sign(), self.string(), self.string(), self.string()];
            match self.below(12) {
                0 => {
                    parts.remove(self.below(4));
                }
                1 => parts.push(self.junk(1)),
                2 | 3 => {
                    let i = self.below(4);
                    parts[i] = self
                        .pick(&["null", "1", "[]", "{}", "true", r#"["x"]"#])
                        .into();
                }
                4 => return self.junk(1),
                _ => {}
            }
            self.array(&parts)
        }

        fn edges(&mut self) -> String {
            if self.one_in(8) {
                return self.junk(1);
            }
            let edges: Vec<String> = (0..self.below(5)).map(|_| self.edge()).collect();
            self.array(&edges)
        }

        /// A request line: the op and its fields in shuffled order, plus
        /// unknown members, duplicate keys and wrong-typed fields.
        fn request_line(&mut self) -> String {
            let mut members: Vec<(String, String)> = Vec::new();
            if !self.one_in(10) {
                let op = self.pick(&[
                    r#""register""#,
                    r#""unregister""#,
                    r#""push""#,
                    r#""push""#,
                    r#""flush""#,
                    r#""stats""#,
                    r#""ping""#,
                    r#""warp""#,
                    r#""p\u0075sh""#,
                    "1",
                ]);
                let key = self.pick(&[r#""op""#, r#""op""#, r#""\u006fp""#]);
                members.push((key.into(), op.into()));
            }
            if self.one_in(2) {
                let query = if self.one_in(6) {
                    self.junk(1)
                } else {
                    self.string()
                };
                members.push((r#""query""#.into(), query));
            }
            if self.one_in(2) {
                let id = self.pick(&[
                    "7",
                    "0",
                    "-0",
                    "4294967295",
                    "4294967296",
                    "1.0",
                    "1e2",
                    "-1",
                    "1.5",
                    r#""7""#,
                    "null",
                    "9007199254740993",
                ]);
                members.push((r#""id""#.into(), id.into()));
            }
            if !self.one_in(3) {
                let key = self.pick(&[r#""edges""#, r#""edges""#, r#""edg\u0065s""#]);
                let edges = self.edges();
                members.push((key.into(), edges));
            }
            for _ in 0..self.below(3) {
                let key = self.pick(&[r#""x""#, r#""Op""#, r#""""#, r#""nested""#]);
                let value = self.junk(3);
                members.push((key.into(), value));
            }
            if !members.is_empty() && self.one_in(4) {
                let key = members[self.below(members.len())].0.clone();
                let value = self.junk(1);
                members.push((key, value));
            }
            for i in (1..members.len()).rev() {
                members.swap(i, self.below(i + 1));
            }
            format!("{}{}{}", self.ws(), self.object(&members), self.ws())
        }

        /// A plain string over characters that need every kind of escape.
        fn text(&mut self) -> String {
            (0..self.below(5))
                .map(|_| self.pick(&['a', 'z', '"', '\\', '/', 'é', '😀', '\n', '\u{1}', '+', ' ']))
                .collect()
        }

        fn request(&mut self) -> Request {
            match self.below(6) {
                0 => Request::Register { query: self.text() },
                1 => Request::Unregister {
                    id: self.next() as u32,
                },
                2 => Request::Flush,
                3 => Request::Stats,
                4 => Request::Ping,
                _ => Request::Push {
                    edges: (0..self.below(5))
                        .map(|_| EdgeOp {
                            retract: self.one_in(2),
                            label: self.text(),
                            src: self.text(),
                            tgt: self.text(),
                        })
                        .collect(),
                },
            }
        }
    }

    fn assert_decoders_agree(line: &str) {
        assert_eq!(Request::decode(line), tree_decode(line), "line {line:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn one_pass_decode_agrees_with_the_tree_reference(seed in any::<u64>()) {
            let mut noise = Noise(seed);
            let line = noise.request_line();
            assert_decoders_agree(&line);

            let mut cut = noise.below(line.len() + 1);
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            assert_decoders_agree(&line[..cut]);

            let at = noise.below(line.len());
            if line.as_bytes()[at].is_ascii() {
                let mut flipped = line.clone().into_bytes();
                flipped[at] = noise.pick(b"\"\\{}[],:0-+.eEu xn\x01");
                assert_decoders_agree(&String::from_utf8(flipped).expect("ASCII for ASCII"));
            }
        }

        #[test]
        fn encoded_requests_decode_to_themselves(seed in any::<u64>()) {
            let request = Noise(seed).request();
            let line = request.encode();
            prop_assert_eq!(Request::decode(&line), Ok(request.clone()));
            if let Request::Push { edges } = &request {
                prop_assert_eq!(&line, &tree_encode_push(edges));
                // What `Client::push` sends for the same edges.
                let borrowed: Vec<(bool, &str, &str, &str)> = edges
                    .iter()
                    .map(|e| (e.retract, e.label.as_str(), e.src.as_str(), e.tgt.as_str()))
                    .collect();
                prop_assert_eq!(&encode_push(borrowed.iter().copied()), &line);
            }
        }
    }

    #[test]
    fn server_frames_decode_replies_and_notifications() {
        let reply = ServerFrame::decode(&reply_ok("register", vec![("id", num(3))])).unwrap();
        match reply {
            ServerFrame::Reply { op, ok, body } => {
                assert_eq!(op, "register");
                assert!(ok);
                assert_eq!(body.get("id").unwrap().as_u64(), Some(3));
            }
            other => panic!("expected reply, got {other:?}"),
        }
        let err = ServerFrame::decode(&reply_err("push", "bad edge")).unwrap();
        assert!(matches!(err, ServerFrame::Reply { ok: false, .. }));
        let n = ServerFrame::decode(&notify(5, 2, 1)).unwrap();
        assert_eq!(
            n,
            ServerFrame::Notify {
                id: 5,
                new: 2,
                retracted: 1
            }
        );
        assert!(ServerFrame::decode(r#"{"x":1}"#).is_err());
    }
}
