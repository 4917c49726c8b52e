//! The macro-SIMDization driver — Algorithm 1 of the paper.
//!
//! Phase order matches the paper: prepass scheduling, identification of
//! vectorizable segments, vertical fusion, repetition-number adjustment
//! (Equation 1), horizontal SIMDization, single-actor SIMDization with
//! cost-model-selected tape optimizations, and final validation.

use crate::cost::{static_firing_cost, AddrCosts};
use crate::error::SimdizeError;
use crate::horizontal::{find_split_joins, horizontalize};
use crate::permnet::{gather_applicable, scatter_applicable};
use crate::region::{region_width, simdize_region_actor};
use crate::single::{simdize_single_actor, uses_peek, SingleActorConfig, TapeMode};
use crate::vertical::{fuse_chain, link_fusable, splice_fused};
use macross_sdf::{compute_init_reps, lcm, Schedule};
use macross_streamir::analysis::{analyze_vectorizability, check_rates};
use macross_streamir::graph::{AddrGen, Graph, Node, NodeId, Reorder, ReorderSide};
use macross_streamir::types::ScalarTy;
use macross_telemetry::compile::{Pass, PassEvent};
use macross_vm::Machine;
use std::collections::HashSet;

/// Which transforms and optimizations the driver may apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimdizeOptions {
    /// Single-actor SIMDization of isolated stateless actors.
    pub single: bool,
    /// Vertical fusion of SIMDizable pipelines.
    pub vertical: bool,
    /// Horizontal SIMDization of isomorphic split-joins.
    pub horizontal: bool,
    /// Permutation-based tape accesses (Figure 7).
    pub permute_opt: bool,
    /// SAGU / software-reordered vector tape accesses (Figures 8/9).
    pub reorder_opt: bool,
    /// Skip actors the cost model deems unprofitable to vectorize.
    pub profitability: bool,
    /// Run the classic prepass optimizations (constant folding, identity
    /// simplification, dead-store elimination) before SIMDizing
    /// (Algorithm 1's "Prepass-Optimizations"). Bit-exactness preserving.
    pub prepass: bool,
    /// Region-based stateful SIMDization: vectorize actors whose state is
    /// declared as independent regions (lane-per-region panels).
    pub region: bool,
}

impl Default for SimdizeOptions {
    fn default() -> Self {
        SimdizeOptions {
            single: true,
            vertical: true,
            horizontal: true,
            permute_opt: true,
            reorder_opt: true,
            profitability: true,
            prepass: true,
            region: true,
        }
    }
}

impl SimdizeOptions {
    /// All transforms enabled (the paper's full MacroSS configuration).
    pub fn all() -> SimdizeOptions {
        SimdizeOptions::default()
    }

    /// Only single-actor SIMDization with strided tapes — the baseline the
    /// paper's Figure 11 compares vertical SIMDization against.
    pub fn single_only() -> SimdizeOptions {
        SimdizeOptions {
            single: true,
            vertical: false,
            horizontal: false,
            permute_opt: false,
            reorder_opt: false,
            profitability: true,
            prepass: true,
            region: false,
        }
    }

    /// Everything except the SAGU/reorder tape optimization (the Figure 12
    /// baseline).
    pub fn no_reorder() -> SimdizeOptions {
        SimdizeOptions {
            reorder_opt: false,
            ..SimdizeOptions::default()
        }
    }
}

/// The input/output tape-mode decision for one vectorized actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeDecision {
    /// Actor name (post-transform).
    pub actor: String,
    /// Chosen input mode.
    pub input: TapeMode,
    /// Chosen output mode.
    pub output: TapeMode,
}

/// What the driver did, for tests, reports and EXPERIMENTS.md.
#[derive(Debug, Clone, Default)]
pub struct SimdizeReport {
    /// Equation-1 repetition scale factor applied to the whole graph.
    pub scale_factor: u64,
    /// Actors vectorized by single-actor SIMDization (incl. fused actors).
    pub single_actors: Vec<String>,
    /// Vertically fused chains (original actor names per chain).
    pub vertical_chains: Vec<Vec<String>>,
    /// Horizontally merged vector actors, one vec per split-join.
    pub horizontal_groups: Vec<Vec<String>>,
    /// Eligible actors skipped as unprofitable.
    pub skipped_unprofitable: Vec<String>,
    /// Stateful actors vectorized by region-based SIMDization
    /// (post-transform names).
    pub region_actors: Vec<String>,
    /// Tape-access modes chosen per vectorized actor.
    pub tape_decisions: Vec<TapeDecision>,
    /// Compile-side trace: every transform decision in the order the
    /// driver made it, with the cost-model estimates behind it.
    pub passes: Vec<PassEvent>,
}

/// Result of macro-SIMDization: the vectorized graph plus its adjusted
/// steady-state schedule (do **not** recompute the schedule from the graph
/// — the Equation-1 scaling is deliberate).
#[derive(Debug, Clone)]
pub struct Simdized {
    /// The transformed graph.
    pub graph: Graph,
    /// The adjusted schedule.
    pub schedule: Schedule,
    /// What was done.
    pub report: SimdizeReport,
}

/// Is this filter eligible for single/vertical SIMDization on `machine`?
fn eligible(graph: &Graph, id: NodeId, machine: &Machine) -> bool {
    let Some(f) = graph.node(id).as_filter() else {
        return false;
    };
    let va = analyze_vectorizability(f);
    va.simdizable() && machine.supports_all(&va.intrinsics)
}

/// Run macro-SIMDization (Algorithm 1) on a stream graph.
///
/// # Errors
/// Fails if the graph is invalid, any filter's declared rates disagree
/// with its body, or an internal transform self-check fails.
pub fn macro_simdize(
    graph: &Graph,
    machine: &Machine,
    opts: &SimdizeOptions,
) -> Result<Simdized, SimdizeError> {
    let colors = vec![0u32; graph.node_count()];
    macro_simdize_colocated(graph, machine, opts, &colors).map(|(s, _)| s)
}

/// Macro-SIMDization under a co-location constraint: nodes carry a color
/// (e.g. the core a multicore partitioner assigned them to), and vertical
/// fusion / horizontal merging may only combine same-colored actors.
///
/// Returns the result together with the colors of the transformed graph's
/// nodes (new fused/merged nodes inherit their sources' color).
///
/// This models the paper's Figure-13 study: "The scheduler we use in this
/// experiment first performs multi-core partitioning and then performs
/// macro-SIMDization. This approach reduces the opportunities for
/// performing vertical fusion and also horizontal SIMDization."
///
/// # Errors
/// Same as [`macro_simdize`].
pub fn macro_simdize_colocated(
    graph: &Graph,
    machine: &Machine,
    opts: &SimdizeOptions,
    colors: &[u32],
) -> Result<(Simdized, Vec<u32>), SimdizeError> {
    assert_eq!(colors.len(), graph.node_count(), "one color per node");
    let mut colors: Vec<u32> = colors.to_vec();
    graph
        .validate()
        .map_err(|e| SimdizeError::Graph(e.to_string()))?;
    for (_, node) in graph.nodes() {
        if let Node::Filter(f) = node {
            check_rates(f).map_err(|e| SimdizeError::RateCheck(e.to_string()))?;
        }
    }
    let sw = machine.simd_width;
    let mut report = SimdizeReport {
        scale_factor: 1,
        ..Default::default()
    };
    let mut g = graph.clone();

    // --- Horizontal SIMDization of eligible split-joins. Done before
    // vertical so isomorphic branches are not partially fused away; the
    // paper resolves the overlap with its cost model, we use the same
    // priority it picks for its running example.
    if opts.horizontal {
        loop {
            let cands = find_split_joins(&g);
            let mut advanced = false;
            for cand in cands {
                if cand.branches.len() % sw != 0 {
                    continue;
                }
                // Every actor must be supported by the SIMD engine.
                let intrinsics_ok = cand.branches.iter().flatten().all(|&id| {
                    g.node(id)
                        .as_filter()
                        .map(|f| machine.supports_all(&analyze_vectorizability(f).intrinsics))
                        .unwrap_or(false)
                });
                if !intrinsics_ok {
                    continue;
                }
                // Co-location: all branch actors must share a color.
                let group_color = colors[cand.splitter.0 as usize];
                if cand
                    .branches
                    .iter()
                    .flatten()
                    .any(|id| colors[id.0 as usize] != group_color)
                {
                    continue;
                }
                match horizontalize(&g, &cand, sw) {
                    Ok(h) => {
                        let added = 2 + h.merged_names.iter().map(|r| r.len()).sum::<usize>();
                        let group: Vec<String> = h.merged_names.into_iter().flatten().collect();
                        report.passes.push(
                            PassEvent::new(Pass::Horizontal, group.join("+"), sw as u64)
                                .note(format!("{}-branch split-join merged", cand.branches.len())),
                        );
                        report.horizontal_groups.push(group);
                        let mut new_colors = vec![0u32; h.graph.node_count()];
                        for (old, new) in h.node_map.iter().enumerate() {
                            if let Some(n) = new {
                                new_colors[n.0 as usize] = colors[old];
                            }
                        }
                        for k in 0..added {
                            new_colors[h.graph.node_count() - added + k] = group_color;
                        }
                        colors = new_colors;
                        g = h.graph;
                        advanced = true;
                        break; // node ids changed; re-find candidates
                    }
                    Err(_) => continue, // not isomorphic etc.: leave scalar
                }
            }
            if !advanced {
                break;
            }
        }
    }

    // --- Prepass classic optimizations (value-preserving). Run *after*
    // horizontal SIMDization: identity rewrites like `x * 1.0 -> x` can
    // otherwise make isomorphic actors structurally different (the merge
    // compares shapes modulo constants, and folding is shape-changing).
    if opts.prepass {
        let stats = crate::opt::prepass_optimize(&mut g);
        report.passes.push(
            PassEvent::new(Pass::Prepass, "<graph>", sw as u64).note(format!(
                "{} rewrites: {} folded, {} identities, {} branches, {} loops, {} dead stores",
                stats.total(),
                stats.folded,
                stats.identities,
                stats.branches_resolved,
                stats.loops_simplified,
                stats.dead_stores
            )),
        );
    }

    // --- Vertical fusion of maximal SIMDizable pipeline chains.
    let mut fused_names: HashSet<String> = HashSet::new();
    if opts.vertical {
        loop {
            let sched = Schedule::compute(&g)?;
            let order = g
                .topo_order()
                .map_err(|e| SimdizeError::Graph(e.to_string()))?;
            let mut taken: HashSet<NodeId> = HashSet::new();
            let mut chain: Option<Vec<NodeId>> = None;
            'outer: for &id in &order {
                if taken.contains(&id) || !eligible(&g, id, machine) {
                    continue;
                }
                let mut c = vec![id];
                let mut cur = id;
                while let Some(e) = g.single_out_edge(cur) {
                    let next = g.edge(e).dst;
                    if taken.contains(&next)
                        || !eligible(&g, next, machine)
                        || colors[next.0 as usize] != colors[id.0 as usize]
                        || link_fusable(&g, cur, next).is_err()
                    {
                        break;
                    }
                    c.push(next);
                    cur = next;
                }
                taken.extend(c.iter().copied());
                if c.len() >= 2 {
                    chain = Some(c);
                    break 'outer;
                }
            }
            let Some(chain) = chain else { break };
            let reps: Vec<u64> = chain.iter().map(|&id| sched.rep(id)).collect();
            let names: Vec<String> = chain.iter().map(|&id| g.node(id).name()).collect();
            let chain_color = colors[chain[0].0 as usize];
            let fused = fuse_chain(&g, &chain, &reps)?;
            fused_names.insert(fused.name.clone());
            let (ng, fused_id) = splice_fused(&g, &chain, fused);
            // Remap colors: kept nodes keep theirs, the fused node takes
            // the chain's color. splice_fused removes the chain and
            // appends exactly one node.
            let mut new_colors = vec![0u32; ng.node_count()];
            {
                use crate::graph_edit::rebuild_without;
                let remove: HashSet<NodeId> = chain.iter().copied().collect();
                let r = rebuild_without(&g, &remove);
                for (old, new) in r.node_map.iter().enumerate() {
                    if let Some(n) = new {
                        new_colors[n.0 as usize] = colors[old];
                    }
                }
            }
            new_colors[fused_id.0 as usize] = chain_color;
            colors = new_colors;
            g = ng;
            report.passes.push(
                PassEvent::new(Pass::Vertical, names.join("->"), sw as u64)
                    .note(format!("{}-actor chain fused", names.len())),
            );
            report.vertical_chains.push(names);
        }
    }

    // --- Select the single-actor SIMDization set (fused actors are plain
    // filters at this point and are selected by the same rule).
    let mut schedule = Schedule::compute(&g)?;
    let mut selected: Vec<NodeId> = Vec::new();
    if opts.single || opts.vertical {
        for id in g.node_ids() {
            if !eligible(&g, id, machine) {
                continue;
            }
            let is_fused = fused_names.contains(&g.node(id).name());
            if !opts.single && !is_fused {
                continue;
            }
            selected.push(id);
        }
    }

    // --- Tape-mode selection and profitability per actor.
    let mut plans: Vec<(NodeId, SingleActorConfig)> = Vec::new();
    for &id in &selected {
        let f = g
            .node(id)
            .as_filter()
            .expect("selected actors are filters")
            .clone();
        let in_elem = g
            .single_in_edge(id)
            .map(|e| g.edge(e).elem)
            .unwrap_or(ScalarTy::F32);
        let out_elem = g
            .single_out_edge(id)
            .map(|e| g.edge(e).elem)
            .unwrap_or(ScalarTy::F32);
        let peeking = f.peek > f.pop || uses_peek(&f);

        let mut input_modes = vec![TapeMode::Strided];
        let mut output_modes = vec![TapeMode::Strided];
        if !peeking && f.pop > 0 {
            if opts.permute_opt && machine.has_permute && gather_applicable(f.pop) {
                input_modes.push(TapeMode::Permute);
            }
            if opts.reorder_opt && scalar_neighbor(&g, id, true, &selected) {
                input_modes.push(TapeMode::VectorReorder);
            }
        }
        if f.push > 0 {
            if opts.permute_opt && machine.has_permute && scatter_applicable(f.push) {
                output_modes.push(TapeMode::Permute);
            }
            if opts.reorder_opt && scalar_neighbor(&g, id, false, &selected) {
                output_modes.push(TapeMode::VectorReorder);
            }
        }

        let addr_unit = if machine.has_sagu {
            machine.cost.sagu_access
        } else {
            machine.cost.addr_software_reorder
        };
        let mut best: Option<(u64, SingleActorConfig)> = None;
        for &im in &input_modes {
            for &om in &output_modes {
                let cfg = SingleActorConfig {
                    sw,
                    input: im,
                    output: om,
                    in_elem,
                    out_elem,
                };
                let Ok(vf) = simdize_single_actor(&f, &cfg) else {
                    continue;
                };
                let mut cost = static_firing_cost(&vf, machine, AddrCosts::default());
                // Charge the neighbour's extra address generation.
                if im == TapeMode::VectorReorder {
                    cost += (sw * f.pop) as u64 * addr_unit;
                }
                if om == TapeMode::VectorReorder {
                    cost += (sw * f.push) as u64 * addr_unit;
                }
                if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                    best = Some((cost, cfg));
                }
            }
        }
        let (vcost, cfg) = best.expect("strided mode always available");
        let scost = static_firing_cost(&f, machine, AddrCosts::default());
        if opts.profitability && vcost >= (sw as u64) * scost {
            report.passes.push(
                PassEvent::new(Pass::Unprofitable, f.name.clone(), sw as u64)
                    .costs(scost, vcost)
                    .note("vector firing not cheaper than SW scalar firings"),
            );
            report.skipped_unprofitable.push(f.name.clone());
            continue;
        }
        report.passes.push(
            PassEvent::new(Pass::SingleActor, f.name.clone(), sw as u64)
                .costs(scost, vcost)
                .note(format!("tapes in={:?} out={:?}", cfg.input, cfg.output)),
        );
        plans.push((id, cfg));
    }

    // --- Region-based stateful SIMDization: actors the passes above
    // refuse (stateful), but whose state is declared as independent
    // regions. The lane width is the machine width or the largest
    // power-of-two divisor of the region count that fits.
    let mut region_plans: Vec<(NodeId, SingleActorConfig)> = Vec::new();
    if opts.region {
        for id in g.node_ids() {
            let Some(f) = g.node(id).as_filter() else {
                continue;
            };
            let Some(spec) = &f.region else { continue };
            let va = analyze_vectorizability(f);
            if va.vectorized || !machine.supports_all(&va.intrinsics) {
                continue;
            }
            if macross_streamir::analysis::check_region_spec(f).is_err() {
                continue; // malformed annotation: stay scalar, bit-exactly
            }
            let Some(w) = region_width(spec.regions, sw) else {
                continue;
            };
            let regions = spec.regions;
            let f = f.clone();
            let in_elem = g
                .single_in_edge(id)
                .map(|e| g.edge(e).elem)
                .unwrap_or(ScalarTy::F32);
            let out_elem = g
                .single_out_edge(id)
                .map(|e| g.edge(e).elem)
                .unwrap_or(ScalarTy::F32);
            let cfg = SingleActorConfig::strided(w, in_elem, out_elem);
            let Ok(vf) = simdize_region_actor(&f, &cfg) else {
                continue;
            };
            // Equation-1-style profitability with a region-permute term:
            // when the cursor must rotate across several panels, the
            // panel state cannot stay register-resident between firings,
            // so each extra panel is charged one cross-panel permute.
            let panels = regions / w;
            let permute_term = (panels as u64 - 1) * machine.cost.permute;
            let scost = static_firing_cost(&f, machine, AddrCosts::default());
            let vcost = static_firing_cost(&vf, machine, AddrCosts::default()) + permute_term;
            if opts.profitability && vcost >= (w as u64) * scost {
                report.passes.push(
                    PassEvent::new(Pass::Unprofitable, f.name.clone(), w as u64)
                        .costs(scost, vcost)
                        .note(format!(
                            "region vector firing not cheaper than {w} scalar firings \
                             (R={regions}, permute term {permute_term})"
                        )),
                );
                report.skipped_unprofitable.push(f.name.clone());
                continue;
            }
            report.passes.push(
                PassEvent::new(Pass::Region, f.name.clone(), w as u64)
                    .costs(scost, vcost)
                    .note(format!(
                        "R={regions} regions as {panels} panel(s), permute term {permute_term}"
                    )),
            );
            region_plans.push((id, cfg));
        }
    }

    // --- Equation 1: scale the repetition vector so every selected actor's
    // repetition number is a multiple of its lane width (SW for the
    // classic passes, the chosen divisor width for region actors — all
    // powers of two <= SW, so one scale factor covers the mix).
    if !plans.is_empty() || !region_plans.is_empty() {
        let m = plans
            .iter()
            .map(|(id, cfg)| (*id, cfg.sw))
            .chain(region_plans.iter().map(|(id, cfg)| (*id, cfg.sw)))
            .map(|(id, w)| {
                let r = schedule.rep(id);
                lcm(w as u64, r) / r
            })
            .max()
            .unwrap_or(1);
        schedule.scale(m);
        report.scale_factor = m;
        report.passes.push(
            PassEvent::new(Pass::Equation1, "<schedule>", sw as u64)
                .note(format!("repetition vector scaled by {m}")),
        );
    }

    // --- Transform the selected actors, divide their repetition numbers,
    // and mark reordered edges.
    for (id, cfg) in &plans {
        let f = g.node(*id).as_filter().expect("filter").clone();
        let vf = simdize_single_actor(&f, cfg)?;
        report.tape_decisions.push(TapeDecision {
            actor: vf.name.clone(),
            input: cfg.input,
            output: cfg.output,
        });
        report.single_actors.push(vf.name.clone());
        g.replace_node(*id, Node::Filter(vf));
        let r = &mut schedule.reps[id.0 as usize];
        debug_assert_eq!(
            *r % sw as u64,
            0,
            "Equation 1 must make reps divisible by SW"
        );
        *r /= sw as u64;

        let addr_gen = if machine.has_sagu {
            AddrGen::Sagu
        } else {
            AddrGen::Software
        };
        if cfg.input == TapeMode::VectorReorder {
            let e = g.single_in_edge(*id).expect("input edge");
            g.edge_mut(e).reorder = Some(Reorder {
                rate: f.pop,
                sw,
                side: ReorderSide::Producer,
                addr_gen,
            });
        }
        if cfg.output == TapeMode::VectorReorder {
            let e = g.single_out_edge(*id).expect("output edge");
            g.edge_mut(e).reorder = Some(Reorder {
                rate: f.push,
                sw,
                side: ReorderSide::Consumer,
                addr_gen,
            });
        }
    }

    // --- Transform the region actors and divide their repetition numbers
    // by their lane widths. Strided tapes only: no reorder edges.
    for (id, cfg) in &region_plans {
        let f = g.node(*id).as_filter().expect("filter").clone();
        let vf = simdize_region_actor(&f, cfg)?;
        report.tape_decisions.push(TapeDecision {
            actor: vf.name.clone(),
            input: cfg.input,
            output: cfg.output,
        });
        report.region_actors.push(vf.name.clone());
        g.replace_node(*id, Node::Filter(vf));
        let r = &mut schedule.reps[id.0 as usize];
        debug_assert_eq!(
            *r % cfg.sw as u64,
            0,
            "Equation 1 must make reps divisible by the region lane width"
        );
        *r /= cfg.sw as u64;
    }

    // --- Final validation and init-schedule refresh.
    g.validate()
        .map_err(|e| SimdizeError::Graph(e.to_string()))?;
    schedule.init_reps = compute_init_reps(&g, &schedule.order);
    debug_assert!(
        g.edges().all(|(_, e)| {
            let push = g.node(e.src).push_rate(e.src_port) as u64;
            let pop = g.node(e.dst).pop_rate(e.dst_port) as u64;
            schedule.reps[e.src.0 as usize] * push == schedule.reps[e.dst.0 as usize] * pop
        }),
        "adjusted schedule must still balance every tape"
    );
    Ok((
        Simdized {
            graph: g,
            schedule,
            report,
        },
        colors,
    ))
}

/// Statically modelled steady-state work per node: `reps * firing_cost`,
/// where a filter's firing cost comes from the static cost model and a
/// switch node's from the elements it moves. The common currency of both
/// static LPT placement (nodes onto cores, `macross_multicore::partition_lpt`)
/// and the service layer's session sharding (whole sessions onto shards).
pub fn steady_node_weights(graph: &Graph, schedule: &Schedule, machine: &Machine) -> Vec<u64> {
    graph
        .node_ids()
        .map(|id| {
            let per_firing = match graph.node(id) {
                Node::Filter(f) => static_firing_cost(f, machine, AddrCosts::default()),
                node => {
                    let moved: u64 = graph
                        .edges()
                        .map(|(_, e)| {
                            let mut m = 0u64;
                            if e.src == id {
                                m += node.push_rate(e.src_port) as u64;
                            }
                            if e.dst == id {
                                m += node.pop_rate(e.dst_port) as u64;
                            }
                            m
                        })
                        .sum();
                    machine.cost.firing + moved
                }
            };
            schedule.reps[id.0 as usize] * per_firing
        })
        .collect()
}

/// Modelled cost of one steady-state iteration of a SIMDized graph — the
/// sum of [`steady_node_weights`].
pub fn modelled_steady_cost(simd: &Simdized, machine: &Machine) -> u64 {
    steady_node_weights(&simd.graph, &simd.schedule, machine)
        .iter()
        .sum()
}

/// True if the neighbour on the given side is a scalar consumer/producer
/// that can absorb reordered accesses: a sink, splitter, joiner, or a
/// filter that will *not* itself be vectorized.
fn scalar_neighbor(g: &Graph, id: NodeId, input_side: bool, selected: &[NodeId]) -> bool {
    let edge = if input_side {
        g.single_in_edge(id)
    } else {
        g.single_out_edge(id)
    };
    let Some(e) = edge else { return false };
    let other = if input_side {
        g.edge(e).src
    } else {
        g.edge(e).dst
    };
    if g.edge(e).reorder.is_some() || g.edge(e).width != 1 {
        return false;
    }
    match g.node(other) {
        Node::Filter(f) => {
            if selected.contains(&other) {
                return false;
            }
            // A region-annotated neighbour may later be region-vectorized
            // into a strided (rpush-style) producer or consumer, so it
            // cannot absorb reordered accesses.
            if f.region.is_some() {
                return false;
            }
            // The scalar side must access the tape with plain pops/pushes:
            // a peeking consumer's window is supported by the remapping,
            // but rpush-style producers are not.
            if !input_side {
                // `other` is the consumer; any filter consumer works (pop
                // and peek both remap).
                let _ = f;
                true
            } else {
                // `other` is the producer; it must not use rpush (none of
                // our scalar actors do — rpush is compiler-generated).
                let mut has_rpush = false;
                for s in &f.work {
                    s.walk(&mut |s| {
                        if matches!(
                            s,
                            macross_streamir::stmt::Stmt::RPush { .. }
                                | macross_streamir::stmt::Stmt::VPush { .. }
                        ) {
                            has_rpush = true;
                        }
                    });
                }
                !has_rpush
            }
        }
        Node::Splitter(_) | Node::Joiner(_) => true,
        Node::Sink => !input_side,
        Node::HSplitter { .. } | Node::HJoiner { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::builder::StreamSpec;
    use macross_streamir::edsl::*;
    use macross_streamir::types::{Ty, Value};
    use macross_vm::{run_scheduled, Machine, RunResult};

    fn f32_source(name: &str) -> StreamSpec {
        let mut src = FilterBuilder::new(name, 0, 0, 1, ScalarTy::F32);
        let n = src.state("n", Ty::Scalar(ScalarTy::F32));
        src.work(|b| {
            b.push(v(n) * 0.5f32);
            b.set(
                n,
                cast(ScalarTy::F32, (cast(ScalarTy::I32, v(n)) + 1i32) % 777i32),
            );
        });
        src.build_spec()
    }

    fn scale_filter(name: &str, k: f32) -> StreamSpec {
        let mut fb = FilterBuilder::new(name, 2, 2, 2, ScalarTy::F32);
        let a = fb.local("a", Ty::Scalar(ScalarTy::F32));
        let b2 = fb.local("b", Ty::Scalar(ScalarTy::F32));
        fb.work(move |b| {
            b.set(a, pop());
            b.set(b2, pop());
            b.push(v(a) * k + v(b2));
            b.push(v(b2) * k - v(a));
        });
        fb.build_spec()
    }

    /// Run scalar and SIMDized versions over aligned schedules; check
    /// bit-exact outputs and return (scalar, simd) results.
    pub(crate) fn differential(
        graph: &Graph,
        machine: &Machine,
        opts: &SimdizeOptions,
        iters: u64,
    ) -> (RunResult, RunResult, SimdizeReport) {
        let simd = macro_simdize(graph, machine, opts).unwrap();
        let mut ssched = Schedule::compute(graph).unwrap();
        // Align throughput on the first source (node with no inputs).
        let src = graph
            .node_ids()
            .find(|&id| graph.in_edges(id).is_empty())
            .expect("graph has a source");
        let a_rep = ssched.rep(src);
        let b_rep = simd.schedule.reps[src.0 as usize];
        let l = macross_sdf::lcm(a_rep, b_rep);
        ssched.scale(l / a_rep);
        let mut vsched = simd.schedule.clone();
        vsched.scale(l / b_rep);
        let a = run_scheduled(graph, &ssched, machine, iters).unwrap();
        let b = run_scheduled(&simd.graph, &vsched, machine, iters).unwrap();
        assert_eq!(a.output.len(), b.output.len(), "throughput mismatch");
        assert!(!a.output.is_empty());
        for (i, (x, y)) in a.output.iter().zip(&b.output).enumerate() {
            assert!(x.bits_eq(*y), "output {i}: scalar {x:?} vs simd {y:?}");
        }
        (a, b, simd.report)
    }

    #[test]
    fn pipeline_gets_vertically_fused_and_beats_scalar() {
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            scale_filter("f1", 2.0),
            scale_filter("f2", 3.0),
            scale_filter("f3", 4.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let (a, b, report) = differential(&g, &machine, &SimdizeOptions::all(), 8);
        assert_eq!(report.vertical_chains.len(), 1);
        assert_eq!(report.vertical_chains[0], vec!["f1", "f2", "f3"]);
        assert!(
            b.total_cycles() < a.total_cycles(),
            "simd {} vs scalar {}",
            b.total_cycles(),
            a.total_cycles()
        );
    }

    #[test]
    fn figure2_style_graph_end_to_end() {
        // Source -> splitjoin of 4 isomorphic stateless+stateful pipelines
        // -> D -> E chain -> sink: exercises horizontal + vertical +
        // single-actor together.
        let mk_b = |k: f32| {
            let mut fb = FilterBuilder::new("B", 4, 4, 1, ScalarTy::F32);
            let a0 = fb.local("a0", Ty::Scalar(ScalarTy::F32));
            let a1 = fb.local("a1", Ty::Scalar(ScalarTy::F32));
            fb.work(move |b| {
                b.set(a0, pop() + pop());
                b.set(a1, pop() * pop());
                b.push((v(a0) + v(a1)) / k);
            });
            fb.build()
        };
        let mk_c = || {
            let mut fb = FilterBuilder::new("C", 1, 1, 1, ScalarTy::F32);
            let s = fb.state("delay", Ty::Scalar(ScalarTy::F32));
            fb.work(|b| {
                b.push(v(s));
                b.set(s, pop());
            });
            fb.build()
        };
        let branches = (0..4)
            .map(|k| {
                StreamSpec::pipeline(vec![
                    StreamSpec::filter(mk_b(5.0 + k as f32), ScalarTy::F32),
                    StreamSpec::filter(mk_c(), ScalarTy::F32),
                ])
            })
            .collect();
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            StreamSpec::SplitJoin {
                split: macross_streamir::SplitKind::RoundRobin(vec![4, 4, 4, 4]),
                branches,
                join: vec![1, 1, 1, 1],
            },
            scale_filter("D", 2.0),
            scale_filter("E", 3.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let (a, b, report) = differential(&g, &machine, &SimdizeOptions::all(), 6);
        assert_eq!(report.horizontal_groups.len(), 1);
        assert!(!report.vertical_chains.is_empty());
        assert!(b.total_cycles() < a.total_cycles());
    }

    #[test]
    fn unprofitable_actor_skipped() {
        // A peek-heavy FIR whose strided SIMDization is slower than scalar.
        let mut fir = FilterBuilder::new("fir", 8, 1, 1, ScalarTy::F32);
        let i = fir.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = fir.local("acc", Ty::Scalar(ScalarTy::F32));
        let junk = fir.local("junk", Ty::Scalar(ScalarTy::F32));
        fir.work(|b| {
            b.set(acc, 0.0f32);
            b.for_(i, 8i32, |b| {
                b.set(acc, v(acc) + peek(v(i)));
            });
            b.set(junk, pop());
            b.push(v(acc));
        });
        let g = StreamSpec::pipeline(vec![f32_source("src"), fir.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let machine = Machine::core_i7();
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
        assert_eq!(simd.report.skipped_unprofitable, vec!["fir"]);
        assert!(simd.report.single_actors.is_empty());
    }

    #[test]
    fn sagu_machine_prefers_vector_reorder() {
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            scale_filter("f", 2.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let sagu = Machine::core_i7_with_sagu();
        let (_, _, report) = differential(&g, &sagu, &SimdizeOptions::all(), 6);
        let d = &report.tape_decisions[0];
        assert_eq!(d.input, TapeMode::VectorReorder);
        assert_eq!(d.output, TapeMode::VectorReorder);

        // Without the SAGU the software reorder cost pushes the model to
        // permute (p = 2 is a power of two) or strided.
        let base = Machine::core_i7();
        let (_, _, report2) = differential(&g, &base, &SimdizeOptions::all(), 6);
        assert_ne!(report2.tape_decisions[0].input, TapeMode::VectorReorder);
    }

    #[test]
    fn sagu_improves_cycles() {
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            scale_filter("f", 2.0),
            scale_filter("g", 3.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let base = Machine::core_i7();
        let sagu = Machine::core_i7_with_sagu();
        let (_, b_base, _) = differential(&g, &base, &SimdizeOptions::all(), 8);
        let (_, b_sagu, _) = differential(&g, &sagu, &SimdizeOptions::all(), 8);
        assert!(
            b_sagu.total_cycles() <= b_base.total_cycles(),
            "sagu {} vs base {}",
            b_sagu.total_cycles(),
            b_base.total_cycles()
        );
    }

    #[test]
    fn equation1_scaling_recorded() {
        // Actor with repetition number 3 against SW=4 forces M=4; with rep
        // 2 forces M=2.
        let mut up = FilterBuilder::new("up", 2, 2, 3, ScalarTy::F32);
        up.work(|b| {
            b.push(pop());
            b.push(pop() * 2.0f32);
            b.push(0.25f32);
        });
        let mut down = FilterBuilder::new("down", 3, 3, 1, ScalarTy::F32);
        down.work(|b| {
            b.push(pop() + pop() + pop());
        });
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            up.build_spec(),
            down.build_spec(),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
        // up and down fuse into 1up_1down? reps: src 2, up 1, down 1. After
        // fusion rep 1 -> M = 4.
        assert_eq!(simd.report.scale_factor, 4);
        let _ = Value::I32(0);
    }

    #[test]
    fn pass_events_trace_the_pipeline() {
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            scale_filter("f1", 2.0),
            scale_filter("f2", 3.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::all()).unwrap();
        let passes = &simd.report.passes;
        let kinds: Vec<Pass> = passes.iter().map(|e| e.pass).collect();
        assert!(kinds.contains(&Pass::Prepass));
        assert!(kinds.contains(&Pass::Vertical));
        assert!(kinds.contains(&Pass::SingleActor));
        assert!(kinds.contains(&Pass::Equation1));
        // Every vectorization decision carries its cost-model estimates.
        let sa = passes.iter().find(|e| e.pass == Pass::SingleActor).unwrap();
        assert!(sa.est_scalar_cycles > 0 && sa.est_vector_cycles > 0);
        assert!(sa.est_speedup() > 1.0, "selected actors must model faster");
        assert_eq!(sa.simd_width, machine.simd_width as u64);
        // And the unprofitable path records its evidence too.
        let mut fir = FilterBuilder::new("fir", 8, 1, 1, ScalarTy::F32);
        let i = fir.local("i", Ty::Scalar(ScalarTy::I32));
        let acc = fir.local("acc", Ty::Scalar(ScalarTy::F32));
        let junk = fir.local("junk", Ty::Scalar(ScalarTy::F32));
        fir.work(|b| {
            b.set(acc, 0.0f32);
            b.for_(i, 8i32, |b| {
                b.set(acc, v(acc) + peek(v(i)));
            });
            b.set(junk, pop());
            b.push(v(acc));
        });
        let g2 = StreamSpec::pipeline(vec![f32_source("src"), fir.build_spec(), StreamSpec::Sink])
            .build()
            .unwrap();
        let simd2 = macro_simdize(&g2, &machine, &SimdizeOptions::all()).unwrap();
        let up = simd2
            .report
            .passes
            .iter()
            .find(|e| e.pass == Pass::Unprofitable)
            .expect("fir must be recorded as unprofitable");
        assert_eq!(up.actor, "fir");
        assert!(up.est_vector_cycles >= 4 * up.est_scalar_cycles);
    }

    fn iir_bank_filter(name: &str, regions: usize) -> StreamSpec {
        let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", regions);
        let y = fb.region_var("y", ScalarTy::F32);
        let j = fb.local("j", Ty::Scalar(ScalarTy::I32));
        fb.init(|b| {
            b.for_(j, regions as i32, |b| {
                b.set_idx(y, v(j), cast(ScalarTy::F32, v(j)) * 0.125f32);
            });
        });
        fb.work(|b| {
            b.set_idx(y, v(cur), idx(y, v(cur)) * 0.5f32 + pop() * 0.5f32);
            b.push(idx(y, v(cur)));
            b.set(cur, (v(cur) + 1i32) % c(regions as i32));
        });
        fb.build_spec()
    }

    #[test]
    fn region_actor_vectorized_and_bit_exact() {
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            iir_bank_filter("bank", 8),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let (a, b, report) = differential(&g, &machine, &SimdizeOptions::all(), 8);
        assert_eq!(report.region_actors, vec!["bank_r4"]);
        assert!(report
            .passes
            .iter()
            .any(|e| e.pass == Pass::Region && e.actor == "bank"));
        assert!(
            b.total_cycles() < a.total_cycles(),
            "region simd {} should beat scalar {}",
            b.total_cycles(),
            a.total_cycles()
        );
    }

    #[test]
    fn region_disabled_leaves_actor_scalar() {
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            iir_bank_filter("bank", 8),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let opts = SimdizeOptions {
            region: false,
            ..SimdizeOptions::all()
        };
        let simd = macro_simdize(&g, &machine, &opts).unwrap();
        assert!(simd.report.region_actors.is_empty());
        assert!(
            simd.graph.nodes().any(|(_, n)| n.name() == "bank"),
            "bank must stay scalar"
        );
        // And the differential still holds (scalar == scalar).
        differential(&g, &machine, &opts, 4);
    }

    #[test]
    fn malformed_region_annotation_falls_back_scalar() {
        // Cross-region write: annotation is a lie; driver must keep the
        // actor scalar and stay bit-exact rather than vectorize it.
        let mut fb = FilterBuilder::new("liar", 1, 1, 1, ScalarTy::F32);
        let cur = fb.region_cursor("cur", 4);
        let y = fb.region_var("y", ScalarTy::F32);
        fb.work(|b| {
            b.set_idx(y, (v(cur) + 1i32) % c(4i32), pop());
            b.push(idx(y, v(cur)));
            b.set(cur, (v(cur) + 1i32) % c(4i32));
        });
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            StreamSpec::filter(fb.build(), ScalarTy::F32),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let (_, _, report) = differential(&g, &machine, &SimdizeOptions::all(), 6);
        assert!(report.region_actors.is_empty());
        assert!(!report.passes.iter().any(|e| e.pass == Pass::Region));
    }

    #[test]
    fn region_width_divisor_schedules_mixed_widths() {
        // R=2 on a 4-wide machine: lane width drops to 2; a stateless
        // actor in the same pipeline still vectorizes at 4. Equation 1
        // must cover both.
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            scale_filter("f", 2.0),
            iir_bank_filter("bank2", 2),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let (_, _, report) = differential(&g, &machine, &SimdizeOptions::all(), 8);
        assert_eq!(report.region_actors, vec!["bank2_r2"]);
        let ev = report
            .passes
            .iter()
            .find(|e| e.pass == Pass::Region)
            .unwrap();
        assert_eq!(ev.simd_width, 2);
        assert!(!report.single_actors.is_empty());
    }

    #[test]
    fn options_disable_transforms() {
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            scale_filter("f1", 2.0),
            scale_filter("f2", 3.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let single_only = macro_simdize(&g, &machine, &SimdizeOptions::single_only()).unwrap();
        assert!(single_only.report.vertical_chains.is_empty());
        assert_eq!(single_only.report.single_actors.len(), 2);
        let (a, b, _) = differential(&g, &machine, &SimdizeOptions::single_only(), 6);
        assert!(b.total_cycles() < a.total_cycles());
    }
}
