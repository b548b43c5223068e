//! Graph traversal utilities: BFS, connected components, connectivity.

use crate::Graph;

/// Breadth-first search from `start`, returning the visit order.
///
/// # Panics
///
/// Panics if `start >= g.n()`.
pub fn bfs_order(g: &Graph, start: usize) -> Vec<usize> {
    let mut visited = vec![false; g.n()];
    let mut order = vec![start];
    visited[start] = true;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for (nbr, _, _) in g.neighbors(u) {
            let v = nbr as usize;
            if !visited[v] {
                visited[v] = true;
                order.push(v);
            }
        }
    }
    order
}

/// BFS distances (in hops) from `start`; unreachable vertices get
/// `usize::MAX`.
///
/// # Panics
///
/// Panics if `start >= g.n()`.
pub fn bfs_distances(g: &Graph, start: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = vec![start];
    dist[start] = 0;
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for (nbr, _, _) in g.neighbors(u) {
            let v = nbr as usize;
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push(v);
            }
        }
    }
    dist
}

/// Labels each vertex with its connected-component id (`0..k`), returning
/// `(labels, component_count)`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let mut label = vec![usize::MAX; g.n()];
    let mut k = 0;
    let mut queue = Vec::new();
    for s in 0..g.n() {
        if label[s] != usize::MAX {
            continue;
        }
        queue.clear();
        queue.push(s);
        label[s] = k;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for (nbr, _, _) in g.neighbors(u) {
                let v = nbr as usize;
                if label[v] == usize::MAX {
                    label[v] = k;
                    queue.push(v);
                }
            }
        }
        k += 1;
    }
    (label, k)
}

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() == 0 {
        return true;
    }
    connected_components(g).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_visits_everything_once() {
        let g = path(10);
        let order = bfs_order(&g, 3);
        assert_eq!(order.len(), 10);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn distances_on_path() {
        let g = path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn components_of_disjoint_union() {
        let g = Graph::from_edges(6, &[(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)]).unwrap();
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 3); // {0,1}, {2,3,4}, {5}
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[4]);
        assert_ne!(labels[0], labels[5]);
        assert!(!is_connected(&g));
        assert!(is_connected(&path(4)));
    }

    #[test]
    fn unreachable_distance_is_max() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], usize::MAX);
    }
}
