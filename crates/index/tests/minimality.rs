//! The labelling rule, checked against its definition: on every testkit
//! family and landmark count, `(r, d) ∈ L(v)` holds iff `d = d(r, v)` and
//! no landmark `x ≠ r` lies on a shortest `r`–`v` path, that is
//! `d(r, x) + d(x, v) = d(r, v)`. Taking `x = v` covers landmark vertices:
//! a landmark holds only its own root entry. The highway must hold exact
//! landmark-to-landmark distances. Distances come from plain BFS, so the
//! test shares no code with the builder.

use hcl_core::{bfs, testkit, INFINITY};
use hcl_index::{BuildOptions, HighwayCoverIndex, SelectionStrategy};

#[test]
fn labels_are_exactly_the_minimal_highway_cover() {
    let strategies = [
        SelectionStrategy::DegreeRank,
        SelectionStrategy::SeededRandom { seed: 5 },
    ];
    for (name, g) in testkit::families() {
        let n = g.num_vertices();
        let all: Vec<Vec<u32>> = (0..n as u32).map(|x| bfs::distances_from(&g, x)).collect();
        for strategy in strategies {
            for k in [0usize, 1, 3, 8, 20] {
                let idx = HighwayCoverIndex::build_with(
                    &g,
                    &BuildOptions {
                        num_landmarks: k,
                        threads: 1,
                        batch_size: 0,
                        selection: Some(strategy),
                    },
                );
                let view = idx.as_view();
                let landmarks = view.landmarks();
                let at = format!("{name} k={k} {strategy}");
                for (r, &lr) in landmarks.iter().enumerate() {
                    for (j, &lj) in landmarks.iter().enumerate() {
                        assert_eq!(
                            view.highway()[r * landmarks.len() + j],
                            all[lr as usize][lj as usize],
                            "{at}: highway ({r}, {j})"
                        );
                    }
                }
                for v in 0..n {
                    let expected: Vec<(u32, u32)> = landmarks
                        .iter()
                        .enumerate()
                        .filter_map(|(r, &lr)| {
                            let from_r = &all[lr as usize];
                            let d = from_r[v];
                            if d == INFINITY {
                                return None;
                            }
                            let passes = landmarks.iter().any(|&x| {
                                x != lr
                                    && from_r[x as usize] as u64 + all[x as usize][v] as u64
                                        == d as u64
                            });
                            (!passes).then_some((r as u32, d))
                        })
                        .collect();
                    let got: Vec<(u32, u32)> = idx.label(v as u32).collect();
                    assert_eq!(got, expected, "{at}: label of vertex {v}");
                }
            }
        }
    }
}
