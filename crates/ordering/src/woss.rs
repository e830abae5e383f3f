//! The WOSS heuristic (Figure 7 of the paper).

use crate::problem::{SsProblem, WireOrdering};

/// Wire Ordering for the Switching-Similarity problem.
///
/// The heuristic follows the paper exactly:
///
/// 1. start with the minimum-weight edge `(w_1, w_2)`;
/// 2. repeatedly extend the ordering at its tail: among all wires not yet
///    placed, append the one with the minimum weight to the current last wire.
///
/// The run time is `O(n²)` for `n` wires (a depth-first greedy sweep of the
/// complete graph `K_n`). This allocates the result; [`woss_into`] runs the
/// same sweep in caller-provided buffers.
///
/// Degenerate inputs: an empty problem yields an empty ordering, a single
/// wire yields the trivial ordering.
pub fn woss(problem: &SsProblem) -> WireOrdering {
    let n = problem.len();
    let mut placed = vec![false; n];
    let mut order = vec![0; n];
    woss_into(|i, j| problem.weight(i, j), &mut placed, &mut order);
    problem.make_ordering(order)
}

/// [`woss`] without allocating: orders `n = order.len()` wires whose edge
/// weights `weight(i, j)` are given by position, and writes the ordering
/// into `order` as positions. `placed` is scratch of `n` flags; its
/// contents on entry do not matter. The weight is only ever asked for two
/// distinct positions.
///
/// # Panics
///
/// Panics if `placed` is shorter than `order`.
pub fn woss_into(weight: impl Fn(usize, usize) -> f64, placed: &mut [bool], order: &mut [usize]) {
    let n = order.len();
    let placed = &mut placed[..n];
    if n < 2 {
        order.fill(0);
        return;
    }

    // A1: the minimum-weighted edge starts the ordering.
    let mut best = (0usize, 1usize);
    let mut best_w = weight(0, 1);
    for i in 0..n {
        for j in (i + 1)..n {
            let w = weight(i, j);
            if w < best_w {
                best_w = w;
                best = (i, j);
            }
        }
    }
    placed.fill(false);
    order[0] = best.0;
    order[1] = best.1;
    placed[best.0] = true;
    placed[best.1] = true;

    // A2: extend greedily from the current tail.
    for m in 2..n {
        let tail = order[m - 1];
        let mut next = None;
        let mut next_w = f64::INFINITY;
        for (candidate, &taken) in placed.iter().enumerate() {
            if taken {
                continue;
            }
            let w = weight(tail, candidate);
            if w < next_w {
                next_w = w;
                next = Some(candidate);
            }
        }
        let chosen = next.expect("an unplaced wire always exists inside the loop");
        placed[chosen] = true;
        order[m] = chosen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::identity_ordering;
    use ncgws_circuit::NodeId;

    fn problem(weights: Vec<f64>) -> SsProblem {
        let n = (weights.len() as f64).sqrt() as usize;
        let nodes = (0..n).map(|i| NodeId::new(100 + i)).collect();
        SsProblem::from_weights(nodes, weights).unwrap()
    }

    #[test]
    fn empty_and_singleton() {
        let p = problem(vec![]);
        assert!(woss(&p).is_empty());
        let p1 = problem(vec![0.0]);
        let o = woss(&p1);
        assert_eq!(o.len(), 1);
        assert_eq!(o.cost(), 0.0);
    }

    #[test]
    fn starts_from_minimum_edge() {
        // Edge (1,2) has the smallest weight.
        let p = problem(vec![
            0.0, 5.0, 7.0, //
            5.0, 0.0, 1.0, //
            7.0, 1.0, 0.0,
        ]);
        let o = woss(&p);
        let pos = o.positions();
        assert!(
            (pos[0] == 1 && pos[1] == 2) || (pos[0] == 2 && pos[1] == 1),
            "ordering {pos:?} must start with the minimum edge"
        );
        assert!(o.is_permutation_of(&p));
    }

    #[test]
    fn finds_the_obvious_chain() {
        // Weights encode a path 0-1-2-3 with cheap consecutive edges and
        // expensive everything else.
        let w = |i: usize, j: usize| -> f64 {
            if i.abs_diff(j) == 1 {
                0.1
            } else if i == j {
                0.0
            } else {
                10.0
            }
        };
        let mut weights = vec![0.0; 16];
        for i in 0..4 {
            for j in 0..4 {
                weights[i * 4 + j] = w(i, j);
            }
        }
        let p = problem(weights);
        let o = woss(&p);
        assert!((o.cost() - 0.3).abs() < 1e-12, "cost {}", o.cost());
        // Every adjacent pair in the result must be a consecutive pair of the chain.
        for pair in o.positions().windows(2) {
            assert_eq!(pair[0].abs_diff(pair[1]), 1, "sequence {:?}", o.positions());
        }
    }

    #[test]
    fn never_worse_than_identity_on_structured_inputs() {
        // A block-structured weight matrix: wires in the same block are similar.
        let n = 8;
        let mut weights = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                weights[i * n + j] = if (i < 4) == (j < 4) { 0.2 } else { 1.8 };
            }
        }
        // Interleave blocks in the node order so identity is bad.
        let order_map = [0usize, 4, 1, 5, 2, 6, 3, 7];
        let mut shuffled = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                shuffled[i * n + j] = weights[order_map[i] * n + order_map[j]];
            }
        }
        let p = problem(shuffled);
        let greedy = woss(&p);
        let base = identity_ordering(&p);
        assert!(greedy.cost() <= base.cost());
        // The optimum keeps the two blocks contiguous: cost 6*0.2 + 1*1.8.
        assert!((greedy.cost() - (6.0 * 0.2 + 1.8)).abs() < 1e-9);
    }

    #[test]
    fn in_place_matches_the_allocating_form() {
        for n in 0..9 {
            let mut weights = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..i {
                    let w = ((i * 7 + j * 3) % 11) as f64 / 11.0;
                    weights[i * n + j] = w;
                    weights[j * n + i] = w;
                }
            }
            let p = problem(weights);
            // Scratch left dirty by an earlier, larger channel.
            let mut placed = vec![true; n + 3];
            let mut order = vec![usize::MAX; n];
            woss_into(|i, j| p.weight(i, j), &mut placed, &mut order);
            let o = woss(&p);
            assert_eq!(order, o.positions(), "n={n}");
            let cost = crate::problem::path_cost(&order, |i, j| p.weight(i, j));
            assert_eq!(cost.to_bits(), o.cost().to_bits(), "n={n}");
        }
    }

    #[test]
    fn result_is_always_a_permutation() {
        for n in 2..10 {
            let mut weights = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        weights[i * n + j] = ((i * 31 + j * 17) % 13) as f64 / 13.0;
                        weights[j * n + i] = weights[i * n + j];
                    }
                }
            }
            // Symmetrize deterministically.
            for i in 0..n {
                for j in 0..i {
                    let w = weights[j * n + i];
                    weights[i * n + j] = w;
                }
            }
            let p = problem(weights);
            let o = woss(&p);
            assert!(o.is_permutation_of(&p), "n={n}");
        }
    }
}
