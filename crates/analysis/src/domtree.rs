//! Dominator tree construction via the Cooper–Harvey–Kennedy algorithm
//! ("A Simple, Fast Dominance Algorithm").

use splendid_ir::{BlockId, Function};
use std::collections::HashMap;

/// Immediate-dominator tree of a function's CFG.
///
/// Unreachable blocks have no immediate dominator and dominate nothing.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[b]` is the immediate dominator of `b`; `None` for the entry
    /// and for unreachable blocks.
    idom: Vec<Option<BlockId>>,
    #[allow(dead_code)]
    /// Reverse post-order position of each reachable block.
    rpo_pos: Vec<Option<usize>>,
    /// Reverse post-order of reachable blocks.
    rpo: Vec<BlockId>,
    entry: BlockId,
}

impl DomTree {
    /// Compute the dominator tree of `f`.
    pub fn compute(f: &Function) -> DomTree {
        let rpo = f.reverse_post_order();
        let nblocks = f.blocks.len();
        let mut rpo_pos: Vec<Option<usize>> = vec![None; nblocks];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = Some(i);
        }
        let preds = f.predecessors();
        let mut idom: Vec<Option<BlockId>> = vec![None; nblocks];
        idom[f.entry.index()] = Some(f.entry); // sentinel: entry's idom is itself
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // not yet processed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(&idom, &rpo_pos, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Replace the entry sentinel with None for a cleaner public API.
        idom[f.entry.index()] = None;
        DomTree {
            idom,
            rpo_pos,
            rpo,
            entry: f.entry,
        }
    }

    fn intersect(
        idom: &[Option<BlockId>],
        rpo_pos: &[Option<usize>],
        mut a: BlockId,
        mut b: BlockId,
    ) -> BlockId {
        let pos = |x: BlockId| rpo_pos[x.index()].expect("reachable block");
        while a != b {
            while pos(a) > pos(b) {
                a = idom[a.index()].expect("non-entry has idom during solve");
            }
            while pos(b) > pos(a) {
                b = idom[b.index()].expect("non-entry has idom during solve");
            }
        }
        a
    }

    /// Immediate dominator of `b` (`None` for the entry block and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        b == self.entry || self.idom[b.index()].is_some()
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Reachable blocks in reverse post-order.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Children map of the dominator tree.
    pub fn children(&self) -> HashMap<BlockId, Vec<BlockId>> {
        let mut map: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for (i, id) in self.idom.iter().enumerate() {
            if let Some(parent) = id {
                map.entry(*parent).or_default().push(BlockId(i as u32));
            }
        }
        map
    }
}

/// A naive O(n²) dominance computation used as a test oracle: `a` dominates
/// `b` iff removing `a` makes `b` unreachable from the entry.
pub fn dominates_naive(f: &Function, a: BlockId, b: BlockId) -> bool {
    // Reachability of b from entry avoiding a (unless b == a == reachable).
    let reachable_avoiding = |avoid: Option<BlockId>| -> Vec<bool> {
        let mut seen = vec![false; f.blocks.len()];
        if avoid == Some(f.entry) {
            return seen;
        }
        let mut stack = vec![f.entry];
        seen[f.entry.index()] = true;
        while let Some(x) = stack.pop() {
            for s in f.successors(x) {
                if Some(s) != avoid && !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        seen
    };
    let plain = reachable_avoiding(None);
    if !plain[b.index()] {
        return false; // unreachable blocks are dominated by nothing
    }
    if a == b {
        return true;
    }
    !reachable_avoiding(Some(a))[b.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_ir::builder::FuncBuilder;
    use splendid_ir::rng::Rng;
    use splendid_ir::Module;
    use splendid_ir::{Type, Value};

    /// Build a CFG from an adjacency list; block 0 is the entry. Blocks with
    /// no successors get `ret void`; one successor `br`; two `condbr`.
    fn cfg(adj: &[&[u32]]) -> Function {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "t", &[("c", Type::I1)], Type::Void);
        let blocks: Vec<BlockId> = (0..adj.len())
            .map(|i| {
                if i == 0 {
                    b.current_block()
                } else {
                    b.new_block(&format!("n{i}"))
                }
            })
            .collect();
        for (i, succs) in adj.iter().enumerate() {
            b.switch_to(blocks[i]);
            match succs.len() {
                0 => b.ret(None),
                1 => b.br(blocks[succs[0] as usize]),
                2 => {
                    let c = b.arg(0);
                    b.cond_br(c, blocks[succs[0] as usize], blocks[succs[1] as usize])
                }
                _ => panic!("at most 2 successors"),
            }
        }
        b.into_func()
    }

    #[test]
    fn diamond() {
        // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3 ; 3 -> exit(4)
        let f = cfg(&[&[1, 2], &[3], &[3], &[]]);
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(BlockId(0)), None);
        assert_eq!(dt.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(0)));
        assert!(dt.dominates(BlockId(0), BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(dt.strictly_dominates(BlockId(0), BlockId(1)));
        assert!(!dt.strictly_dominates(BlockId(1), BlockId(1)));
    }

    #[test]
    fn loop_cfg() {
        // 0 -> 1 ; 1 -> 2,3 ; 2 -> 1 ; 3 -> exit
        let f = cfg(&[&[1], &[2, 3], &[1], &[]]);
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dt.idom(BlockId(3)), Some(BlockId(1)));
        assert!(dt.dominates(BlockId(1), BlockId(2)));
    }

    #[test]
    fn unreachable_block() {
        let f = cfg(&[&[], &[]]); // block 1 unreachable
        let dt = DomTree::compute(&f);
        assert!(!dt.is_reachable(BlockId(1)));
        assert!(!dt.dominates(BlockId(0), BlockId(1)));
        assert!(!dt.dominates(BlockId(1), BlockId(1)));
    }

    #[test]
    fn matches_naive_on_irregular_cfg() {
        // An irregular CFG with a loop and cross edges.
        // 0->1,2  1->3  2->3,4  3->5  4->5,1  5->6,0? (no back to entry; use 6)
        let f = cfg(&[&[1, 2], &[3], &[3, 4], &[5], &[5, 1], &[6, 3], &[]]);
        let dt = DomTree::compute(&f);
        for a in 0..7u32 {
            for b in 0..7u32 {
                assert_eq!(
                    dt.dominates(BlockId(a), BlockId(b)),
                    dominates_naive(&f, BlockId(a), BlockId(b)),
                    "dominates({a},{b}) mismatch"
                );
            }
        }
    }

    #[test]
    fn children_partition() {
        let f = cfg(&[&[1, 2], &[3], &[3], &[]]);
        let dt = DomTree::compute(&f);
        let ch = dt.children();
        let entry_children = &ch[&BlockId(0)];
        assert_eq!(entry_children.len(), 3);
    }

    /// CHK dominance equals the naive oracle on seeded random CFGs.
    #[test]
    fn prop_matches_naive() {
        for case in 0..256 {
            let mut rng = Rng::for_case(0xD0A1, case);
            // Up to 19 edges over 8 nodes, at most 2 successors per node.
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); 8];
            for _ in 0..rng.below(20) {
                let (a, b) = (rng.below(8) as usize, rng.below(8) as u32);
                let v = &mut adj[a];
                if v.len() < 2 && !v.contains(&b) {
                    v.push(b);
                }
            }
            let adj_refs: Vec<&[u32]> = adj.iter().map(|v| v.as_slice()).collect();
            let f = cfg(&adj_refs);
            let dt = DomTree::compute(&f);
            for a in 0..8u32 {
                for b in 0..8u32 {
                    assert_eq!(
                        dt.dominates(BlockId(a), BlockId(b)),
                        dominates_naive(&f, BlockId(a), BlockId(b)),
                        "case {case}: dominates({a},{b}) on {adj:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn self_loop() {
        let f = cfg(&[&[1], &[1, 2], &[]]);
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(BlockId(1)), Some(BlockId(0)));
        assert!(dt.dominates(BlockId(1), BlockId(2)));
        let _ = Value::i64(0);
    }
}

/// Immediate post-dominators computed on the reversed CFG with a virtual
/// exit joining every `ret`/`unreachable` block.
///
/// `ipostdom[b]` is `None` when `b` post-dominates straight to the virtual
/// exit (or is unreachable backwards).
pub fn ipostdoms(f: &Function) -> Vec<Option<BlockId>> {
    let n = f.blocks.len();
    let virtual_exit = n; // extra node index
                          // Reversed adjacency: succ_rev[x] = preds of x in reverse graph =
                          // successors in forward graph; plus exits -> virtual.
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    let mut preds_rev: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for b in f.block_ids() {
        let succs = f.successors(b);
        if succs.is_empty() {
            // terminator is ret/unreachable (or malformed): edge to exit.
            fwd[virtual_exit].push(b.index());
            preds_rev[b.index()].push(virtual_exit);
        }
        for s in succs {
            fwd[s.index()].push(b.index());
            preds_rev[b.index()].push(s.index());
        }
    }
    // RPO from the virtual exit over the reversed graph.
    let mut visited = vec![false; n + 1];
    let mut post: Vec<usize> = Vec::new();
    let mut stack = vec![(virtual_exit, 0usize)];
    visited[virtual_exit] = true;
    while let Some(&mut (x, ref mut next)) = stack.last_mut() {
        if *next < fwd[x].len() {
            let s = fwd[x][*next];
            *next += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(x);
            stack.pop();
        }
    }
    post.reverse();
    let mut rpo_pos = vec![usize::MAX; n + 1];
    for (i, &x) in post.iter().enumerate() {
        rpo_pos[x] = i;
    }
    let mut idom: Vec<Option<usize>> = vec![None; n + 1];
    idom[virtual_exit] = Some(virtual_exit);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in post.iter().skip(1) {
            let mut new_idom: Option<usize> = None;
            for &p in &preds_rev[b] {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => {
                        let mut a = p;
                        let mut c = cur;
                        while a != c {
                            while rpo_pos[a] > rpo_pos[c] {
                                a = idom[a].unwrap();
                            }
                            while rpo_pos[c] > rpo_pos[a] {
                                c = idom[c].unwrap();
                            }
                        }
                        a
                    }
                });
            }
            if let Some(ni) = new_idom {
                if idom[b] != Some(ni) {
                    idom[b] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    (0..n)
        .map(|b| match idom[b] {
            Some(p) if p != virtual_exit && p != b => Some(BlockId(p as u32)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod postdom_tests {
    use super::*;
    use splendid_ir::builder::FuncBuilder;
    use splendid_ir::Module;
    use splendid_ir::Type;

    #[test]
    fn diamond_join_is_postdominator() {
        // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3 ; 3 ret
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "t", &[("c", Type::I1)], Type::Void);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let j = b.new_block("j");
        b.cond_br(b.arg(0), t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        let f = b.into_func();
        let pd = ipostdoms(&f);
        assert_eq!(pd[0], Some(j));
        assert_eq!(pd[t.index()], Some(j));
        assert_eq!(pd[e.index()], Some(j));
        assert_eq!(pd[j.index()], None);
    }

    #[test]
    fn straight_line_chain() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new(&mut m, "t", &[], Type::Void);
        let n1 = b.new_block("n1");
        b.br(n1);
        b.switch_to(n1);
        b.ret(None);
        let f = b.into_func();
        let pd = ipostdoms(&f);
        assert_eq!(pd[0], Some(n1));
        assert_eq!(pd[n1.index()], None);
    }
}
