//! The trace schema: every [`TraceEvent`] variant declared once.
//!
//! One table lists, per variant, its doc comment, its kind name (the
//! JSONL and post-mortem `type`), its base WSTRACE1 kind tag, its
//! sampling class, and its typed fields in wire order. From that table the
//! `schema!` macro generates the enum, [`TraceEvent::kind`],
//! [`TraceEvent::is_bulk`], the columnar base tag, one encode walk
//! ([`FieldSink`]) and two decode constructors ([`FieldSource`], keyed by
//! kind name or by kind tag). Every codec — JSONL, WSTRACE1, the
//! post-mortem `Value` tree — is a small sink/source over those walks, so
//! adding an event is one table entry plus the per-kind *meaning* the
//! compiler then asks for (the Perfetto shape and the analyzer folds).
//!
//! Field classes:
//!
//! * `id` — a wide `u64` identifier (circuit, probe, message); the
//!   columnar format interns it into the frame dictionary;
//! * `u64`, `u32`, `u8` — plain integers;
//! * `bool` — folded into kind-tag bit `0x40` by the columnar format (at
//!   most one per variant);
//! * `plane` — a [`PlaneId`], folded into the kind tag as an offset from
//!   the base tag (at most one per variant; the variant then owns
//!   `PlaneId::ALL.len()` consecutive tags).
//!
//! Base tags are part of the on-disk format: append only, and keep every
//! variant's tag range below `0x40`.

use crate::PlaneId;

/// Receives an event's fields in declaration order (the encode walk).
/// `u32` and `u8` fields arrive widened to `u64`.
pub(crate) trait FieldSink {
    /// A wide identifier.
    fn id(&mut self, name: &'static str, v: u64);
    /// A plain integer.
    fn u64(&mut self, name: &'static str, v: u64);
    /// The variant's flag.
    fn bool(&mut self, name: &'static str, v: bool);
    /// The variant's plane.
    fn plane(&mut self, name: &'static str, v: PlaneId);
}

/// Supplies an event's fields in declaration order (the decode walk).
/// `u32` and `u8` fields are read as `u64` and range-checked here.
pub(crate) trait FieldSource {
    /// A wide identifier.
    fn id(&mut self, name: &'static str) -> Result<u64, String>;
    /// A plain integer.
    fn u64(&mut self, name: &'static str) -> Result<u64, String>;
    /// The variant's flag.
    fn bool(&mut self, name: &'static str) -> Result<bool, String>;
    /// The variant's plane. `folded` is the plane's index in
    /// [`PlaneId::ALL`] as carried by a kind tag ([`TraceEvent::decode_tag`]);
    /// sources that name the plane themselves ignore it.
    fn plane(&mut self, name: &'static str, folded: u8) -> Result<PlaneId, String>;
}

/// Narrows a decoded integer to its field's width.
#[inline]
fn narrow<T: TryFrom<u64>>(v: u64, name: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| {
        let ty = std::any::type_name::<T>();
        format!("field `{name}` out of {ty} range")
    })
}

/// The Rust type of a field class.
macro_rules! field_ty {
    (id) => {
        u64
    };
    (u64) => {
        u64
    };
    (u32) => {
        u32
    };
    (u8) => {
        u8
    };
    (bool) => {
        bool
    };
    (plane) => {
        PlaneId
    };
}

/// Kind tags a field class spans (only `plane` folds into the tag range).
macro_rules! tag_span {
    (plane) => {
        (PlaneId::ALL.len() as u8)
    };
    ($class:ident) => {
        1
    };
}

/// Hands one field of class `$class` to a [`FieldSink`].
macro_rules! write_field {
    ($sink:ident, id, $name:ident) => {
        $sink.id(stringify!($name), $name)
    };
    ($sink:ident, u64, $name:ident) => {
        $sink.u64(stringify!($name), $name)
    };
    ($sink:ident, bool, $name:ident) => {
        $sink.bool(stringify!($name), $name)
    };
    ($sink:ident, plane, $name:ident) => {
        $sink.plane(stringify!($name), $name)
    };
    ($sink:ident, $narrow:ident, $name:ident) => {
        $sink.u64(stringify!($name), u64::from($name))
    };
}

/// Reads one field of class `$class` from a [`FieldSource`].
macro_rules! read_field {
    ($src:ident, id, $name:ident, $folded:expr) => {
        $src.id(stringify!($name))?
    };
    ($src:ident, u64, $name:ident, $folded:expr) => {
        $src.u64(stringify!($name))?
    };
    ($src:ident, bool, $name:ident, $folded:expr) => {
        $src.bool(stringify!($name))?
    };
    ($src:ident, plane, $name:ident, $folded:expr) => {
        $src.plane(stringify!($name), $folded)?
    };
    ($src:ident, $narrow:ident, $name:ident, $folded:expr) => {
        narrow($src.u64(stringify!($name))?, stringify!($name))?
    };
}

/// Whether a sampling class is thinned by sampling.
macro_rules! sampled {
    (bulk) => {
        true
    };
    (lifecycle) => {
        false
    };
}

/// Generates [`TraceEvent`] and its codec walks from the schema table.
macro_rules! schema {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $kind:literal, tag $tag:literal, $sampling:ident {
            $( $(#[$fmeta:meta])* $field:ident: $class:ident, )*
        }
    )*) => {
        /// One observed fact about the simulation.
        ///
        /// Identifiers are raw integers (`CircuitId.0`, `ProbeId.0`,
        /// `MessageId.0`, `NodeId.0`) so this crate sits *below*
        /// `wavesim-core` in the dependency graph; the emit points convert
        /// typed ids at the boundary.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant {
                    $( $(#[$fmeta])* $field: field_ty!($class), )*
                },
            )*
        }

        impl TraceEvent {
            /// Stable snake_case name of the event kind (JSON and post-mortem
            /// `type`).
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $kind, )*
                }
            }

            /// True for the high-volume kinds sampling thins: per-cycle
            /// tick markers, per-hop probe movement, and cache lookups.
            /// Everything else (circuit lifecycle, transfers, deliveries,
            /// faults) is always captured so span and flow analytics stay
            /// exact under sampling.
            #[must_use]
            pub fn is_bulk(&self) -> bool {
                match self {
                    $( TraceEvent::$variant { .. } => sampled!($sampling), )*
                }
            }

            /// The variant's first WSTRACE1 kind tag (before the plane
            /// offset and the bool bit fold in).
            pub(crate) fn base_tag(&self) -> u8 {
                match self {
                    $( TraceEvent::$variant { .. } => $tag, )*
                }
            }

            /// Hands every field to `sink`, in declaration order.
            // Inlined (like `decode_tag`) so each codec's walk compiles to
            // straight-line field code: the columnar and JSONL writers run
            // it once per captured record.
            #[inline]
            pub(crate) fn visit<S: FieldSink>(&self, sink: &mut S) {
                match *self {
                    $( TraceEvent::$variant { $($field),* } => {
                        $( write_field!(sink, $class, $field); )*
                    } )*
                }
            }

            /// Builds the event named `kind`, reading its fields from `src`.
            pub(crate) fn decode_kind<S: FieldSource>(
                kind: &str,
                src: &mut S,
            ) -> Result<TraceEvent, String> {
                Ok(match kind {
                    $( $kind => TraceEvent::$variant {
                        $( $field: read_field!(src, $class, $field, 0), )*
                    }, )*
                    other => return Err(format!("unknown event kind `{other}`")),
                })
            }

            /// Builds the event whose tag range holds `tag` (bool bit
            /// already stripped), reading its fields from `src`.
            #[inline]
            pub(crate) fn decode_tag<S: FieldSource>(
                tag: u8,
                src: &mut S,
            ) -> Result<TraceEvent, String> {
                $(
                    if tag.wrapping_sub($tag) < 1 $(* tag_span!($class))* {
                        return Ok(TraceEvent::$variant {
                            $( $field: read_field!(src, $class, $field, tag - $tag), )*
                        });
                    }
                )*
                Err(format!("unknown kind tag {tag}"))
            }
        }

        /// `(kind, base tag, tags spanned, field classes)` of every
        /// variant, in table order.
        #[cfg(test)]
        pub(crate) const TAG_TABLE: &[(&str, u8, u8, &[&str])] = &[
            $( ($kind, $tag, 1 $(* tag_span!($class))*, &[$(stringify!($class)),*]), )*
        ];
    };
}

schema! {
    /// A plane did work this cycle (tick boundary marker).
    PlaneTick = "plane_tick", tag 0, bulk {
        /// The plane that ran.
        plane: plane,
    }
    /// A probe left its source to search one wave switch.
    ProbeLaunch = "probe_launch", tag 3, lifecycle {
        /// Circuit the probe works for.
        circuit: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Wave switch searched (1-based).
        switch: u8,
        /// Whether the Force bit is set (CLRP phase two).
        force: bool,
    }
    /// A probe reserved a lane and moved forward one hop.
    ProbeHop = "probe_hop", tag 4, bulk {
        /// Circuit the probe works for.
        circuit: id,
        /// The probe.
        probe: id,
        /// Node the probe arrived at.
        node: u32,
        /// Physical link of the lane the hop reserved (the wave switch is
        /// the one named by the probe's `ProbeLaunch`). Together they name
        /// the reserved lane, which is what lane-occupancy analytics key on.
        link: u32,
        /// Whether this hop spent misroute budget.
        misroute: bool,
    }
    /// A probe released its last lane and stepped back one hop.
    ProbeBacktrack = "probe_backtrack", tag 5, bulk {
        /// Circuit the probe works for.
        circuit: id,
        /// The probe.
        probe: id,
        /// Node the probe backtracked to.
        node: u32,
    }
    /// A force-mode probe parked on a lane and requested a victim release.
    ProbePark = "probe_park", tag 6, lifecycle {
        /// Circuit the probe works for.
        circuit: id,
        /// The probe.
        probe: id,
        /// Node the probe is blocked at.
        node: u32,
        /// Circuit selected as the victim.
        victim: id,
    }
    /// A probe reached the destination (path reserved; ack walk starts).
    ProbeReached = "probe_reached", tag 7, lifecycle {
        /// Circuit the probe works for.
        circuit: id,
        /// The probe.
        probe: id,
        /// Destination node.
        dest: u32,
        /// Control steps the probe took (hops + backtracks).
        steps: u64,
    }
    /// A probe backtracked all the way to its source: switch exhausted.
    ProbeExhausted = "probe_exhausted", tag 8, lifecycle {
        /// Circuit whose attempt failed.
        circuit: id,
        /// Source node.
        src: u32,
        /// Switch whose search space is exhausted.
        switch: u8,
        /// Whether the exhausted probe had the Force bit set.
        force: bool,
    }
    /// The path-setup acknowledgment reached the source: circuit ready.
    CircuitEstablished = "circuit_established", tag 9, lifecycle {
        /// The established circuit.
        circuit: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Path length in hops.
        hops: u32,
    }
    /// Teardown (or probe unwind) finished; every lane is free again.
    CircuitReleased = "circuit_released", tag 10, lifecycle {
        /// The fully released circuit.
        circuit: id,
    }
    /// Establishment failed on every switch; the circuit id retires.
    CircuitAbandoned = "circuit_abandoned", tag 11, lifecycle {
        /// The abandoned circuit.
        circuit: id,
    }
    /// A forced release was requested for an established circuit.
    ForcedRelease = "forced_release", tag 12, lifecycle {
        /// Circuit to release.
        circuit: id,
        /// The circuit's source node.
        src: u32,
    }
    /// A send found a Ready circuit in the source's cache.
    CacheHit = "cache_hit", tag 13, bulk {
        /// Node whose cache was consulted.
        node: u32,
        /// Destination looked up.
        dest: u32,
        /// The circuit that will carry the message.
        circuit: id,
    }
    /// A send found no usable cache entry.
    CacheMiss = "cache_miss", tag 14, bulk {
        /// Node whose cache was consulted.
        node: u32,
        /// Destination looked up.
        dest: u32,
    }
    /// A full cache evicted an entry to make room.
    CacheEvict = "cache_evict", tag 15, lifecycle {
        /// Node whose cache evicted.
        node: u32,
        /// Destination of the evicted entry.
        victim_dest: u32,
        /// Circuit of the evicted entry.
        circuit: id,
    }
    /// A message started streaming over an established circuit.
    TransferStart = "transfer_start", tag 16, lifecycle {
        /// The carrying circuit.
        circuit: id,
        /// The message.
        msg: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Message length in flits.
        len_flits: u32,
    }
    /// A message entered the wormhole fabric.
    WormholeInject = "wormhole_inject", tag 17, lifecycle {
        /// The message.
        msg: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Message length in flits.
        len_flits: u32,
    }
    /// A wormhole message reached its destination.
    WormholeDeliver = "wormhole_deliver", tag 18, lifecycle {
        /// The message.
        msg: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// End-to-end latency in cycles.
        latency: u64,
    }
    /// A circuit transfer reached its destination.
    CircuitDeliver = "circuit_deliver", tag 19, lifecycle {
        /// The message.
        msg: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// End-to-end latency in cycles.
        latency: u64,
    }
    /// A wave lane became faulty (static injection or dynamic fail event).
    LaneFault = "lane_fault", tag 20, lifecycle {
        /// The lane's physical link.
        link: u32,
        /// The lane's wave switch (1-based).
        switch: u8,
    }
    /// A faulty wave lane returned to service (dynamic repair event).
    LaneRepair = "lane_repair", tag 21, lifecycle {
        /// The lane's physical link.
        link: u32,
        /// The lane's wave switch (1-based).
        switch: u8,
    }
    /// A dynamic fault destroyed a circuit; its teardown started.
    CircuitBroken = "circuit_broken", tag 22, lifecycle {
        /// The destroyed circuit.
        circuit: id,
        /// The circuit's source node.
        src: u32,
        /// The circuit's destination node.
        dest: u32,
    }
    /// A post-fault re-establishment attempt launched (backoff expired).
    EstablishRetry = "establish_retry", tag 23, lifecycle {
        /// The fresh circuit id of the retry attempt.
        circuit: id,
        /// Source node.
        src: u32,
        /// Destination node.
        dest: u32,
        /// Which retry this is (1-based, bounded by the retry budget).
        attempt: u8,
    }
    /// A run watchdog rule fired (progress SLO violated; see
    /// `wavesim-bench`'s watchdog for the rule numbering).
    WatchdogTrip = "watchdog_trip", tag 24, lifecycle {
        /// Which rule fired (stable small integer, see the watchdog docs).
        rule: u8,
        /// The observed value that violated the rule.
        value: u64,
        /// The rule's configured threshold.
        limit: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::TAG_TABLE;
    use crate::columnar::TAG_BOOL;

    #[test]
    fn kind_names_are_unique() {
        for (i, (kind, ..)) in TAG_TABLE.iter().enumerate() {
            assert!(
                TAG_TABLE[..i].iter().all(|(k, ..)| k != kind),
                "kind `{kind}` declared twice"
            );
        }
    }

    #[test]
    fn tag_ranges_are_disjoint_and_below_the_bool_bit() {
        let mut ranges: Vec<(u8, u8, &str)> = TAG_TABLE
            .iter()
            .map(|&(kind, base, span, _)| (base, base + span, kind))
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "tags of `{}` overlap `{}`",
                w[0].2,
                w[1].2
            );
        }
        let (_, end, kind) = ranges.last().expect("non-empty schema");
        assert!(*end <= TAG_BOOL, "tags of `{kind}` reach the bool bit");
    }

    #[test]
    fn tag_folded_fields_appear_at_most_once_per_kind() {
        for &(kind, _, _, classes) in TAG_TABLE {
            for folded in ["bool", "plane"] {
                let n = classes.iter().filter(|&&c| c == folded).count();
                assert!(n <= 1, "`{kind}` has {n} `{folded}` fields");
            }
        }
    }
}
