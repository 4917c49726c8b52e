//! The macro-SIMDization driver — Algorithm 1 of the paper.
//!
//! Phase order matches the paper: prepass scheduling, identification of
//! vectorizable segments, vertical fusion, repetition-number adjustment
//! (Equation 1), horizontal SIMDization, single-actor SIMDization with
//! cost-model-selected tape optimizations, and final validation.

use crate::cost::{staged_pair_costs, static_firing_cost, AddrCosts};
use crate::error::SimdizeError;
use crate::horizontal::{find_split_joins, horizontalize};
use crate::opt::OptStats;
use crate::permnet::{gather_applicable, scatter_applicable};
use crate::region::{region_width, simdize_region_actor_analyzed};
use crate::single::{stage_actor, uses_peek, SingleActorConfig, Staged, TapeMode};
use crate::vertical::{chain_reps, fuse_vetted_chain, link_fusable_vetted, splice_fused};
use macross_sdf::{compute_init_reps, lcm, Schedule};
use macross_streamir::analysis::{analyze_vectorizability, check_rates, Vectorizability};
use macross_streamir::filter::Filter;
use macross_streamir::graph::{Graph, Node, NodeId, Reorder, ReorderSide};
use macross_streamir::stmt::Stmt;
use macross_streamir::types::ScalarTy;
use macross_vm::Machine;

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

/// One (input, output) tape-mode pair the cost model priced for an
/// actor, with the cycles of one vector firing under it: the scalar
/// neighbour's reorder surcharge, or a region actor's permute term,
/// included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCost {
    /// Input tape mode.
    pub input: TapeMode,
    /// Output tape mode.
    pub output: TapeMode,
    /// Cycles of one vector firing, covering `width` scalar firings.
    pub cycles: u64,
}

/// What a region-pass record adds: the panels the actor's regions make
/// and the permute cycles its one pair's cost includes for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionTerm {
    /// Declared region count `R`; the actor runs as `R / width` panels.
    pub regions: usize,
    /// One cross-panel permute per panel past the first.
    pub permute_cycles: u64,
}

/// One cost-model decision of Algorithm 1 about one actor: everything the
/// Section 3.5 profitability test read, and which pair won. The list it
/// is in ([`SimdizeReport::single_actors`], `skipped_unprofitable`,
/// `region_actors`) is the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorDecision {
    /// The actor's name in the SIMDized graph: the vector actor's when it
    /// was installed, the scalar actor's when it was skipped.
    pub actor: String,
    /// Lane width: the machine's SIMD width, or a region actor's divisor
    /// of it.
    pub width: usize,
    /// Cycles of one scalar firing.
    pub scalar_cycles: u64,
    /// Every pair priced, input-major; a region record has its one
    /// strided pair.
    pub pairs: Vec<PairCost>,
    /// Index in `pairs` of the winner, the first minimum.
    pub chosen: usize,
    /// `Some` for a record of the region pass.
    pub region: Option<RegionTerm>,
}

impl ActorDecision {
    /// The winning pair.
    pub fn winner(&self) -> PairCost {
        self.pairs[self.chosen]
    }

    /// The profitability test: one vector firing costs less than the
    /// `width` scalar firings it replaces.
    pub fn profitable(&self) -> bool {
        self.winner().cycles < self.width as u64 * self.scalar_cycles
    }
}

/// Work counters of the tape-mode search over the single-actor set: how
/// little had to be built to price its candidates. Not part of the
/// decision — two reports that agree on everything else describe the same
/// compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Full-body tape lowerings, each followed by one `check_rates`
    /// self-check: one per vectorized actor, none per unprofitable one.
    pub lowerings: usize,
    /// Cost-model walks: per actor one over the scalar body and one over
    /// the staged body, whatever the number of pairs.
    pub cost_walks: usize,
    /// Actors whose pair costs (and lowered winner, when one was built)
    /// were compared against the exhaustive grid: every selected actor in
    /// a debug build, 0 in a release build.
    pub oracle_checked: usize,
}

/// What the driver did, for tests, reports and EXPERIMENTS.md: one entry
/// per decision, each list in node order.
#[derive(Debug, Clone, Default)]
pub struct SimdizeReport {
    /// Equation-1 repetition scale factor applied to the whole graph.
    pub scale_factor: u64,
    /// What the classic prepass rewrote (all zero when it is off).
    pub prepass: OptStats,
    /// Actors vectorized by single-actor SIMDization (incl. fused actors).
    pub single_actors: Vec<ActorDecision>,
    /// Vertically fused chains (original actor names per chain).
    pub vertical_chains: Vec<Vec<String>>,
    /// Horizontally merged vector actors, one vec per split-join.
    pub horizontal_groups: Vec<Vec<String>>,
    /// Eligible actors skipped as unprofitable, by the tape-mode search or
    /// by the region pass.
    pub skipped_unprofitable: Vec<ActorDecision>,
    /// Stateful actors vectorized by region-based SIMDization.
    pub region_actors: Vec<ActorDecision>,
    /// Work counters of the tape-mode search.
    pub search: SearchStats,
}

impl SimdizeReport {
    /// The records of the tape-mode search: the actors it installed, then
    /// those it found unprofitable.
    pub fn searched(&self) -> impl Iterator<Item = &ActorDecision> {
        let skipped = self.skipped_unprofitable.iter();
        (self.single_actors.iter()).chain(skipped.filter(|d| d.region.is_none()))
    }
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

/// [`analyze_vectorizability`] and [`uses_peek`] memoised per node for
/// one graph revision, so every phase of one `macro_simdize` call reads
/// the same verdict instead of recomputing it, and the chain search walks
/// a body for its peeks once, not on every link of every round.
struct VaMemo(Vec<Verdict>);

/// What [`VaMemo`] knows about one filter, each part computed on first use.
#[derive(Debug, Clone, Default)]
struct Verdict {
    va: Option<Vectorizability>,
    peeks: Option<bool>,
}

impl VaMemo {
    fn new(graph: &Graph) -> VaMemo {
        VaMemo(vec![Verdict::default(); graph.node_count()])
    }

    /// The verdict for filter `id`; `None` for every other node kind.
    fn get(&mut self, graph: &Graph, id: NodeId) -> Option<&Vectorizability> {
        let f = graph.node(id).as_filter()?;
        Some(
            self.0[id.0 as usize]
                .va
                .get_or_insert_with(|| analyze_vectorizability(f)),
        )
    }

    /// Is this filter eligible for single/vertical SIMDization on `machine`?
    fn eligible(&mut self, graph: &Graph, id: NodeId, machine: &Machine) -> bool {
        self.get(graph, id)
            .is_some_and(|va| va.simdizable() && machine.supports_all(&va.intrinsics))
    }

    /// [`uses_peek`] of filter `id`.
    fn peeks(&mut self, graph: &Graph, id: NodeId) -> bool {
        let f = graph.node(id).as_filter().expect("a filter");
        *self.0[id.0 as usize]
            .peeks
            .get_or_insert_with(|| uses_peek(f))
    }
}

/// Carry per-node data across a graph rebuild: kept nodes keep their
/// value, nodes the rebuild added start from the default.
fn remap_nodes<T: Default>(old: Vec<T>, node_map: &[Option<NodeId>], new_count: usize) -> Vec<T> {
    let mut new: Vec<T> = std::iter::repeat_with(T::default).take(new_count).collect();
    for (value, mapped) in old.into_iter().zip(node_map) {
        if let Some(n) = mapped {
            new[n.0 as usize] = value;
        }
    }
    new
}

/// Element types of a node's input and output tapes (`f32` where it has
/// none).
fn tape_elems(g: &Graph, id: NodeId) -> (ScalarTy, ScalarTy) {
    let elem = |e: Option<_>| e.map_or(ScalarTy::F32, |e| g.edge(e).elem);
    (elem(g.single_in_edge(id)), elem(g.single_out_edge(id)))
}

/// Run macro-SIMDization (Algorithm 1) on a stream graph.
///
/// # Errors
/// Fails if the machine's SIMD width is not a power of two `>= 2`, the
/// graph is invalid, any filter's declared rates disagree with its body,
/// or an internal transform self-check fails.
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
    let sw = machine.simd_width;
    if !sw.is_power_of_two() || sw < 2 {
        return Err(SimdizeError::SimdWidth(sw));
    }
    let mut colors: Vec<u32> = colors.to_vec();
    graph
        .validate()
        .map_err(|e| SimdizeError::Graph(e.to_string()))?;
    for (_, node) in graph.nodes() {
        if let Node::Filter(f) = node {
            check_rates(f).map_err(|e| SimdizeError::RateCheck(e.to_string()))?;
        }
    }
    let mut report = SimdizeReport {
        scale_factor: 1,
        ..Default::default()
    };
    let mut g = graph.clone();
    let mut va = VaMemo::new(&g);

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
                    va.get(&g, id)
                        .is_some_and(|va| machine.supports_all(&va.intrinsics))
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
                        report.horizontal_groups.push(group);
                        let n = h.graph.node_count();
                        colors = remap_nodes(colors, &h.node_map, n);
                        colors[n - added..].fill(group_color);
                        va = VaMemo(remap_nodes(va.0, &h.node_map, n));
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
        report.prepass = crate::opt::prepass_optimize(&mut g);
        va = VaMemo::new(&g); // any actor may have new bodies
    }

    // --- Vertical fusion of maximal SIMDizable pipeline chains. `fused`
    // marks the nodes the fusion built, carried through each splice like
    // `colors`: an unfused actor that shares a fused one's name is not one.
    let mut fused = vec![false; g.node_count()];
    if opts.vertical {
        loop {
            // Recomputed after each splice, not carried across it: a
            // round fuses the first chain in this order, and a splice
            // shortens the paths through the chain, which can move one
            // later chain's head ahead of another's (DESIGN.md §18).
            let order = g
                .topo_order()
                .map_err(|e| SimdizeError::Graph(e.to_string()))?;
            let mut taken = vec![false; g.node_count()];
            let mut c: Vec<NodeId> = Vec::new();
            let mut found = false;
            for &id in &order {
                if taken[id.0 as usize] || !va.eligible(&g, id, machine) {
                    continue;
                }
                c.clear();
                c.push(id);
                let mut cur = id;
                while let Some(e) = g.single_out_edge(cur) {
                    let next = g.edge(e).dst;
                    if taken[next.0 as usize]
                        || !va.eligible(&g, next, machine)
                        || colors[next.0 as usize] != colors[id.0 as usize]
                        || !link_fusable_vetted(&g, cur, next, va.peeks(&g, next))
                    {
                        break;
                    }
                    c.push(next);
                    cur = next;
                }
                for &n in &c {
                    taken[n.0 as usize] = true;
                }
                if c.len() >= 2 {
                    found = true;
                    break;
                }
            }
            if !found {
                break;
            }
            let chain = c;
            let reps = chain_reps(&g, &chain)?;
            #[cfg(debug_assertions)]
            check_chain_reps(&g, &chain, &reps);
            let names: Vec<String> = chain.iter().map(|&id| g.node(id).name()).collect();
            let chain_color = colors[chain[0].0 as usize];
            let spliced = splice_fused(&g, &chain, fuse_vetted_chain(&g, &chain, &reps));
            // Kept nodes keep their color and verdict; the fused node
            // takes the chain's color and is analyzed on first use.
            let n = spliced.graph.node_count();
            colors = remap_nodes(colors, &spliced.node_map, n);
            colors[spliced.fused_id.0 as usize] = chain_color;
            fused = remap_nodes(fused, &spliced.node_map, n);
            fused[spliced.fused_id.0 as usize] = true;
            va = VaMemo(remap_nodes(va.0, &spliced.node_map, n));
            g = spliced.graph;
            report.vertical_chains.push(names);
        }
    }

    // --- Select the single-actor SIMDization set (fused actors are plain
    // filters at this point and are selected by the same rule).
    let mut schedule = Schedule::compute(&g)?;
    let mut selected: Vec<NodeId> = Vec::new();
    if opts.single || opts.vertical {
        for id in g.node_ids() {
            if !va.eligible(&g, id, machine) {
                continue;
            }
            if !opts.single && !fused[id.0 as usize] {
                continue;
            }
            selected.push(id);
        }
    }

    // --- Tape-mode selection and profitability per actor: stage the
    // actor once, cost every candidate (input, output) pair from that
    // staging in one walk, lower only the winner.
    let mut plans: Vec<(NodeId, SingleActorConfig, Filter, ActorDecision)> = Vec::new();
    for &id in &selected {
        let f = g.node(id).as_filter().expect("selected actors are filters");
        let (in_elem, out_elem) = tape_elems(&g, id);
        let staged = stage_actor(f, sw, in_elem, out_elem);
        let (input_modes, output_modes) = candidate_modes(f, &staged, opts, machine, |input| {
            scalar_neighbor(&g, id, input, &selected)
        });

        let costs = staged_pair_costs(&staged, &input_modes, &output_modes, machine);
        #[cfg(debug_assertions)]
        let grid = {
            let grid = exhaustive_grid(
                f,
                (sw, in_elem, out_elem),
                &input_modes,
                &output_modes,
                machine,
            );
            let grid_costs: Vec<Option<u64>> = grid
                .iter()
                .map(|cell| cell.as_ref().map(|(cost, _)| *cost))
                .collect();
            assert_eq!(
                costs.iter().copied().map(Some).collect::<Vec<_>>(),
                grid_costs,
                "{}: staged pair costs differ from the exhaustive grid",
                f.name
            );
            report.search.oracle_checked += 1;
            grid
        };

        // Charge the scalar neighbour's extra address generation, then
        // take the first minimum in input-major order.
        let addr_unit = machine.reorder_access(machine.addr_gen());
        let pairs: Vec<PairCost> = (input_modes.iter())
            .flat_map(|&input| output_modes.iter().map(move |&output| (input, output)))
            .zip(costs)
            .map(|((input, output), mut cycles)| {
                if input == TapeMode::VectorReorder {
                    cycles += (sw * f.pop) as u64 * addr_unit;
                }
                if output == TapeMode::VectorReorder {
                    cycles += (sw * f.push) as u64 * addr_unit;
                }
                PairCost {
                    input,
                    output,
                    cycles,
                }
            })
            .collect();
        let mut chosen = 0;
        for (i, pair) in pairs.iter().enumerate() {
            if pair.cycles < pairs[chosen].cycles {
                chosen = i;
            }
        }
        let mut decision = ActorDecision {
            actor: f.name.clone(),
            width: sw,
            scalar_cycles: static_firing_cost(f, machine, AddrCosts::default()),
            pairs,
            chosen,
            region: None,
        };
        report.search.cost_walks += 2;
        if opts.profitability && !decision.profitable() {
            report.skipped_unprofitable.push(decision);
            continue;
        }
        let PairCost { input, output, .. } = decision.winner();
        let vf = staged.materialize(input, output)?;
        report.search.lowerings += 1;
        #[cfg(debug_assertions)]
        assert_eq!(
            Some(&vf),
            grid[chosen].as_ref().map(|(_, vf)| vf),
            "{}: lowered winner differs from the one-shot transform",
            f.name
        );
        decision.actor = vf.name.clone();
        let cfg = SingleActorConfig {
            sw,
            input,
            output,
            in_elem,
            out_elem,
        };
        plans.push((id, cfg, vf, decision));
    }

    // --- Region-based stateful SIMDization: actors the passes above
    // refuse (stateful), but whose state is declared as independent
    // regions. The lane width is the machine width or the largest
    // power-of-two divisor of the region count that fits.
    let mut region_plans: Vec<(NodeId, SingleActorConfig, Filter, ActorDecision)> = Vec::new();
    if opts.region {
        for id in g.node_ids() {
            let Some(f) = g.node(id).as_filter() else {
                continue;
            };
            let Some(spec) = &f.region else { continue };
            let va = va.get(&g, id).expect("filters have a verdict");
            if va.vectorized || !machine.supports_all(&va.intrinsics) {
                continue;
            }
            let Some(w) = region_width(spec.regions, sw) else {
                continue;
            };
            let regions = spec.regions;
            let (in_elem, out_elem) = tape_elems(&g, id);
            let cfg = SingleActorConfig::strided(w, in_elem, out_elem);
            // A malformed annotation fails `check_region_spec` in there:
            // the actor stays scalar, bit-exactly.
            let Ok(vf) = simdize_region_actor_analyzed(f, &cfg, va) else {
                continue;
            };
            // Equation-1-style profitability with a region-permute term:
            // when the cursor must rotate across several panels, the
            // panel state cannot stay register-resident between firings,
            // so each extra panel is charged one cross-panel permute.
            let panels = regions / w;
            let permute_cycles =
                (panels as u64 - 1) * machine.permute().cycles(AddrCosts::default());
            let mut decision = ActorDecision {
                actor: f.name.clone(),
                width: w,
                scalar_cycles: static_firing_cost(f, machine, AddrCosts::default()),
                pairs: vec![PairCost {
                    input: TapeMode::Strided,
                    output: TapeMode::Strided,
                    cycles: static_firing_cost(&vf, machine, AddrCosts::default()) + permute_cycles,
                }],
                chosen: 0,
                region: Some(RegionTerm {
                    regions,
                    permute_cycles,
                }),
            };
            if opts.profitability && !decision.profitable() {
                report.skipped_unprofitable.push(decision);
                continue;
            }
            decision.actor = vf.name.clone();
            region_plans.push((id, cfg, vf, decision));
        }
    }

    // --- Equation 1: scale the repetition vector so every selected actor's
    // repetition number is a multiple of its lane width (SW for the
    // classic passes, the chosen divisor width for region actors — all
    // powers of two <= SW, so one scale factor covers the mix).
    if !plans.is_empty() || !region_plans.is_empty() {
        let m = plans
            .iter()
            .chain(&region_plans)
            .map(|(id, cfg, _, _)| {
                let r = schedule.rep(*id);
                lcm(cfg.sw as u64, r) / r
            })
            .max()
            .unwrap_or(1);
        schedule.scale(m);
        report.scale_factor = m;
    }

    // --- Put the vectorized actors in the graph, divide their repetition
    // numbers by their lane widths, and mark reordered edges.
    let mut install = |g: &mut Graph, id: NodeId, cfg: &SingleActorConfig, vf: Filter| {
        g.replace_node(id, Node::filter(vf));
        let r = &mut schedule.reps[id.0 as usize];
        debug_assert_eq!(
            *r % cfg.sw as u64,
            0,
            "Equation 1 must make reps divisible by the lane width"
        );
        *r /= cfg.sw as u64;
    };
    let addr_gen = machine.addr_gen();
    for (id, cfg, vf, decision) in plans {
        let (pop, push) = (vf.pop / sw, vf.push / sw);
        report.single_actors.push(decision);
        install(&mut g, id, &cfg, vf);
        if cfg.input == TapeMode::VectorReorder {
            let e = g.single_in_edge(id).expect("input edge");
            g.edge_mut(e).reorder = Some(Reorder {
                rate: pop,
                sw,
                side: ReorderSide::Producer,
                addr_gen,
            });
        }
        if cfg.output == TapeMode::VectorReorder {
            let e = g.single_out_edge(id).expect("output edge");
            g.edge_mut(e).reorder = Some(Reorder {
                rate: push,
                sw,
                side: ReorderSide::Consumer,
                addr_gen,
            });
        }
    }
    // Region actors keep strided tapes: no reorder edges.
    for (id, cfg, vf, decision) in region_plans {
        report.region_actors.push(decision);
        install(&mut g, id, &cfg, vf);
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
/// native node's is its firing overhead plus one cycle per token it moves
/// on each side. The common currency of both static LPT placement (nodes
/// onto cores, `macross_multicore::partition_lpt`) and the service layer's
/// session sharding (whole sessions onto shards).
///
/// A native node's weight is not what the VM charges it: that is a load
/// and a store per token, plus its edges' reorder address costs and, for
/// an H-node, the lane inserts or extracts and vector stores or loads
/// (`macross_vm::firing`'s `moves_charge`). The weights are kept as they
/// are because shard load, `PlanSummary` and replay weights are computed
/// from them (DESIGN.md §10, "One price list").
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
                    machine.firing().cycles(AddrCosts::default()) + moved
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

/// The (input, output) tape modes the search prices for `f`, staged as
/// `staged`. `scalar_neighbor(input)` says whether the neighbour on that
/// side can absorb reordered accesses.
pub(crate) fn candidate_modes(
    f: &Filter,
    staged: &Staged,
    opts: &SimdizeOptions,
    machine: &Machine,
    scalar_neighbor: impl Fn(bool) -> bool,
) -> (Vec<TapeMode>, Vec<TapeMode>) {
    let peeking = f.peek > f.pop || staged.peeking;
    let mut input_modes = vec![TapeMode::Strided];
    let mut output_modes = vec![TapeMode::Strided];
    if !peeking && f.pop > 0 {
        if opts.permute_opt && machine.has_permute && gather_applicable(f.pop) {
            input_modes.push(TapeMode::Permute);
        }
        if opts.reorder_opt && scalar_neighbor(true) {
            input_modes.push(TapeMode::VectorReorder);
        }
    }
    if f.push > 0 {
        if opts.permute_opt && machine.has_permute && scatter_applicable(f.push) {
            output_modes.push(TapeMode::Permute);
        }
        if opts.reorder_opt && scalar_neighbor(false) {
            output_modes.push(TapeMode::VectorReorder);
        }
    }
    (input_modes, output_modes)
}

/// The exhaustive tape-mode grid the staged search replaced, kept as its
/// oracle: every (input, output) pair goes through the public one-shot
/// transform and its own cost walk. Input-major; `None` where the
/// transform refuses the pair. Debug builds run it beside every search
/// and assert identical costs and an identical lowered winner.
#[cfg(debug_assertions)]
fn exhaustive_grid(
    f: &Filter,
    (sw, in_elem, out_elem): (usize, ScalarTy, ScalarTy),
    input_modes: &[TapeMode],
    output_modes: &[TapeMode],
    machine: &Machine,
) -> Vec<Option<(u64, Filter)>> {
    let mut grid = Vec::with_capacity(input_modes.len() * output_modes.len());
    for &input in input_modes {
        for &output in output_modes {
            let cfg = SingleActorConfig {
                sw,
                input,
                output,
                in_elem,
                out_elem,
            };
            grid.push(
                crate::single::simdize_single_actor(f, &cfg)
                    .ok()
                    .map(|vf| (static_firing_cost(&vf, machine, AddrCosts::default()), vf)),
            );
        }
    }
    grid
}

/// The chain-repetition oracle: the repetition numbers [`chain_reps`]
/// takes from the chain's own balance equations must be the graph's
/// steady-state repetition numbers of the chain divided by their gcd.
/// Debug builds check every fused chain (a graph that does not schedule
/// fails after the fusion loop instead).
#[cfg(debug_assertions)]
fn check_chain_reps(g: &Graph, chain: &[NodeId], reps: &[u64]) {
    let Ok(sched) = Schedule::compute(g) else {
        return;
    };
    let global: Vec<u64> = chain.iter().map(|&id| sched.rep(id)).collect();
    let d = global.iter().copied().fold(0, macross_sdf::gcd);
    let global: Vec<u64> = global.iter().map(|r| r / d).collect();
    assert_eq!(
        reps,
        global.as_slice(),
        "chain {:?}: balance-equation reps differ from the schedule's",
        chain
            .iter()
            .map(|&id| g.node(id).name())
            .collect::<Vec<_>>()
    );
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
        // A selected neighbour is about to be vectorized itself, and a
        // region-annotated one may later be region-vectorized into a
        // strided (rpush-style) producer or consumer: neither can absorb
        // reordered accesses.
        Node::Filter(f) if selected.contains(&other) || f.region.is_some() => false,
        // A consumer works as is: pops and peeks both remap.
        Node::Filter(_) if !input_side => true,
        // A producer must write with plain pushes (none of our scalar
        // actors do otherwise — rpush is compiler-generated).
        Node::Filter(f) => {
            let mut plain = true;
            for s in &f.work {
                s.walk(&mut |s| {
                    if matches!(s, Stmt::RPush { .. } | Stmt::VPush { .. }) {
                        plain = false;
                    }
                });
            }
            plain
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
    use macross_streamir::types::Ty;
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

    fn names(records: &[ActorDecision]) -> Vec<&str> {
        records.iter().map(|d| d.actor.as_str()).collect()
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

    /// Vertical-only selection picks the actors fusion built, by node: an
    /// unfused actor that happens to carry a fused actor's name is not
    /// one of them.
    #[test]
    fn vertical_only_selects_fused_nodes_not_their_names() {
        let pass = |name: &str| {
            let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::F32);
            fb.work(|b| {
                b.push(pop() * 2.0f32);
            });
            fb.build_spec()
        };
        let mut namesake = FilterBuilder::new("1a_1b", 2, 1, 1, ScalarTy::F32);
        namesake.work(|b| {
            b.push(peek(1i32) + pop());
        });
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            pass("a"),
            pass("b"),
            namesake.build_spec(),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let opts = SimdizeOptions {
            single: false,
            profitability: false,
            ..Default::default()
        };
        let (_, _, report) = differential(&g, &Machine::core_i7(), &opts, 6);
        assert_eq!(report.vertical_chains, vec![vec!["a", "b"]]);
        assert_eq!(names(&report.single_actors), ["1a_1b_v4"]);
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
        assert_eq!(names(&simd.report.skipped_unprofitable), ["fir"]);
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
        let d = report.single_actors[0].winner();
        assert_eq!(d.input, TapeMode::VectorReorder);
        assert_eq!(d.output, TapeMode::VectorReorder);

        // Without the SAGU the software reorder cost pushes the model to
        // permute (p = 2 is a power of two) or strided.
        let base = Machine::core_i7();
        let (_, _, report2) = differential(&g, &base, &SimdizeOptions::all(), 6);
        assert_ne!(
            report2.single_actors[0].winner().input,
            TapeMode::VectorReorder
        );
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
    }

    #[test]
    fn decision_records_trace_the_pipeline() {
        // `f2` multiplies by 1.0: the prepass removes two identities.
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            scale_filter("f1", 2.0),
            scale_filter("f2", 1.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7();
        let report = macro_simdize(&g, &machine, &SimdizeOptions::all())
            .unwrap()
            .report;
        assert_eq!(report.prepass.identities, 2);
        assert_eq!(report.vertical_chains, [["f1", "f2"]]);
        assert_eq!(report.scale_factor, 4);
        // Every vectorization decision carries its cost-model estimates.
        let sa = &report.single_actors[0];
        assert!(sa.scalar_cycles > 0 && sa.winner().cycles > 0);
        assert!(sa.profitable(), "selected actors must model faster");
        assert_eq!(sa.width, machine.simd_width);
        assert!(sa.pairs.iter().all(|p| p.cycles >= sa.winner().cycles));
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
        let [up] = &simd2.report.skipped_unprofitable[..] else {
            panic!("fir must be recorded as unprofitable");
        };
        assert_eq!(up.actor, "fir");
        assert!(!up.profitable());
        assert!(up.winner().cycles >= 4 * up.scalar_cycles);
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
        assert_eq!(names(&report.region_actors), ["bank_r4"]);
        // Eight regions on four lanes are two panels: one permute, which
        // the one strided pair's cost includes.
        let d = &report.region_actors[0];
        let term = d.region.expect("a region record");
        assert_eq!(term.regions, 8);
        assert!(term.permute_cycles > 0);
        assert_eq!((d.width, d.pairs.len()), (4, 1));
        assert_eq!(
            (d.winner().input, d.winner().output),
            (TapeMode::Strided, TapeMode::Strided)
        );
        assert!(d.winner().cycles > term.permute_cycles && d.profitable());
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
        assert!(report
            .skipped_unprofitable
            .iter()
            .all(|d| d.region.is_none()));
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
        assert_eq!(names(&report.region_actors), ["bank2_r2"]);
        assert_eq!(report.region_actors[0].width, 2);
        assert!(!report.single_actors.is_empty());
    }

    /// An actor whose branch the cost model cannot resolve (`flag` is
    /// state that only `init` writes), with the two sides favouring
    /// different output modes: `wide` pushes the popped vector twice
    /// (lane extracts under strided output), `narrow` pushes uniform
    /// scalars after scalar multiplies (splats under vector output).
    /// `cond` overrides the branch condition with a constant.
    fn branchy_actor(cond: Option<i32>) -> Filter {
        let mut fb = FilterBuilder::new("sel", 1, 1, 2, ScalarTy::F32);
        let flag = fb.state("flag", Ty::Scalar(ScalarTy::I32));
        let a = fb.local("a", Ty::Scalar(ScalarTy::F32));
        let k = fb.local("k", Ty::Scalar(ScalarTy::F32));
        fb.init(|b| {
            b.set(flag, 1i32);
        });
        fb.work(|b| {
            b.set(k, 3.0f32);
            b.if_else(
                cond.map(c).unwrap_or(v(flag)),
                |b| {
                    b.set(a, pop());
                    b.push(v(a));
                    b.push(v(a));
                },
                |b| {
                    b.set(a, pop());
                    b.push(v(k) * v(k) * v(k));
                    b.push(v(k));
                },
            );
        });
        fb.build()
    }

    #[test]
    fn unknown_branch_takes_the_elementwise_max_per_mode_pair() {
        use TapeMode::*;
        let modes = [Strided, Permute, VectorReorder];
        let costs_of = |f: &Filter, machine: &Machine| {
            let staged = stage_actor(f, machine.simd_width, ScalarTy::F32, ScalarTy::F32);
            staged_pair_costs(&staged, &modes, &modes, machine)
        };
        for machine in [
            Machine::core_i7_with_sagu(),
            Machine::wide(8),
            Machine::neon_like(),
        ] {
            let unknown = costs_of(&branchy_actor(None), &machine);
            let wide = costs_of(&branchy_actor(Some(1)), &machine);
            let narrow = costs_of(&branchy_actor(Some(0)), &machine);
            let max: Vec<u64> = wide.iter().zip(&narrow).map(|(w, n)| *w.max(n)).collect();
            assert_eq!(unknown, max, "{}", machine.name);
            // Neither side dominates: which one the max takes depends on
            // the pair, so one total per pair is what has to be carried.
            assert!(wide.iter().zip(&narrow).any(|(w, n)| w > n));
            assert!(wide.iter().zip(&narrow).any(|(w, n)| w < n));

            // And every total is what lowering that pair and walking the
            // result costs.
            #[cfg(debug_assertions)]
            for cond in [None, Some(1), Some(0)] {
                let f = branchy_actor(cond);
                let grid = exhaustive_grid(
                    &f,
                    (machine.simd_width, ScalarTy::F32, ScalarTy::F32),
                    &modes,
                    &modes,
                    &machine,
                );
                let grid: Vec<u64> = grid.into_iter().map(|c| c.unwrap().0).collect();
                assert_eq!(costs_of(&f, &machine), grid, "{}", machine.name);
            }
        }
    }

    #[test]
    fn unknown_branch_actor_survives_the_full_driver() {
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            StreamSpec::filter(branchy_actor(None), ScalarTy::F32),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        for machine in [Machine::core_i7(), Machine::core_i7_with_sagu()] {
            let (_, _, report) = differential(&g, &machine, &SimdizeOptions::all(), 6);
            assert_eq!(report.searched().count(), 1);
        }
    }

    /// Each round fuses the first chain in the topological order of the
    /// graph as the previous splices left it. Fusing `a1 -> a2` shortens
    /// branch A, which moves `hX` ahead of `hC` although `hC` comes first
    /// in the input's order: an order carried across the splice would
    /// fuse `hC -> hC2` second.
    #[test]
    fn each_round_fuses_the_first_chain_of_the_spliced_graph() {
        let plain = |name: &str| {
            let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::F32);
            fb.work(|b| {
                b.push(pop() * 2.0f32);
            });
            fb.build_spec()
        };
        let stateful = |name: &str| {
            let mut fb = FilterBuilder::new(name, 1, 1, 1, ScalarTy::F32);
            let s = fb.state("s", Ty::Scalar(ScalarTy::F32));
            fb.work(|b| {
                b.set(s, v(s) + pop());
                b.push(v(s));
            });
            fb.build_spec()
        };
        let branch_a = ["a0", "a1", "a2", "a3", "hX", "hX2"];
        let branch_c = ["c0", "c1", "c2", "hC", "hC2"];
        // Stateful actors are never fused: they cut the branches into
        // the chains a1 -> a2, hX -> hX2 and hC -> hC2.
        let stage = |name: &&str| {
            if ["a0", "a3", "c0", "c1", "c2"].contains(name) {
                stateful(name)
            } else {
                plain(name)
            }
        };
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            StreamSpec::split_join_duplicate(
                1,
                vec![
                    StreamSpec::pipeline(branch_a.iter().map(stage).collect()),
                    StreamSpec::pipeline(branch_c.iter().map(stage).collect()),
                ],
            ),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let order: Vec<String> = (g.topo_order().unwrap().iter())
            .map(|&id| g.node(id).name())
            .collect();
        let at = |name: &str| order.iter().position(|n| n == name).unwrap();
        assert!(at("hC") < at("hX"), "{order:?}");
        let simd = macro_simdize(&g, &Machine::core_i7(), &SimdizeOptions::all()).unwrap();
        assert_eq!(
            simd.report.vertical_chains,
            [["a1", "a2"], ["hX", "hX2"], ["hC", "hC2"]]
        );
    }

    #[test]
    fn search_stages_once_and_lowers_only_winners() {
        // f vectorizes, fir is unprofitable: two actors searched, one
        // body built.
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
        let g = StreamSpec::pipeline(vec![
            f32_source("src"),
            fir.build_spec(),
            scale_filter("f", 2.0),
            StreamSpec::Sink,
        ])
        .build()
        .unwrap();
        let machine = Machine::core_i7_with_sagu();
        let simd = macro_simdize(&g, &machine, &SimdizeOptions::single_only()).unwrap();
        let report = simd.report;
        assert_eq!(names(&report.skipped_unprofitable), ["fir"]);
        assert_eq!(names(&report.single_actors), ["f_v4"]);
        let stats = report.search;
        assert_eq!(report.searched().count(), 2);
        assert_eq!(stats.lowerings, 1);
        assert_eq!(stats.cost_walks, 4);
        // single_only: strided tapes only, one pair each.
        assert!(report.searched().all(|d| d.pairs.len() == 1));
        assert_eq!(
            stats.oracle_checked,
            if cfg!(debug_assertions) { 2 } else { 0 }
        );

        // With every tape optimization on, f (pop 2, push 2; only its
        // sink side can reorder, the fir being selected itself) has 2 x 3
        // candidate pairs and the peeking fir 1 x 2 — still one lowering,
        // and every pair's cost is in its record.
        let simd = macro_simdize(
            &g,
            &machine,
            &SimdizeOptions {
                vertical: false,
                ..SimdizeOptions::all()
            },
        )
        .unwrap();
        assert_eq!(simd.report.search.lowerings, 1);
        let pairs = |d: &ActorDecision| -> Vec<(TapeMode, TapeMode)> {
            d.pairs.iter().map(|p| (p.input, p.output)).collect()
        };
        use TapeMode::{Permute, Strided, VectorReorder};
        assert_eq!(
            pairs(&simd.report.single_actors[0]),
            [
                (Strided, Strided),
                (Strided, Permute),
                (Strided, VectorReorder),
                (Permute, Strided),
                (Permute, Permute),
                (Permute, VectorReorder),
            ]
        );
        assert_eq!(
            pairs(&simd.report.skipped_unprofitable[0]),
            [(Strided, Strided), (Strided, Permute)]
        );
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
