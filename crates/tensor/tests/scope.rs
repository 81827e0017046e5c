//! The `Graph::scope` contract at the tape level:
//!
//! * on an inference tape a scope releases every node it created except
//!   the one it returns, and the released buffers serve the ops after it;
//! * scopes nest, and a scope returning a node made before it releases
//!   everything made inside it;
//! * a released node fails loudly, whether read through `Graph::value`
//!   or as an op's input;
//! * on a training tape a scope is the identity, so values and gradients
//!   are those of the unscoped tape.
//!
//! The model-level half (scoped SegformerLite forwards bit-identical to a
//! training tape through a NaN-poisoned pool) is `gqa-models`'
//! `tests/scope.rs`.

use gqa_tensor::{BufferPool, EvalMode, ExactBackend, Graph, NodeId, Tensor, UnaryKind};

const B: ExactBackend = ExactBackend;

fn ramp(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|i| i as f32 * 0.25 - 1.0).collect(), shape)
}

/// `gelu(2x + 1)` with its two intermediates, the body the tests scope.
fn body(g: &mut Graph<'_>, x: NodeId) -> (NodeId, NodeId, NodeId) {
    let a = g.scale(x, 2.0);
    let b = g.add_scalar(a, 1.0);
    let c = g.unary(b, UnaryKind::Gelu);
    (a, b, c)
}

#[test]
fn released_buffers_serve_the_ops_after_the_scope() {
    let mut g = Graph::new_inference(&B);
    let x = g.input(ramp(&[4, 8]));
    let mut released = Vec::new();
    let y = g.scope(|g| {
        let (a, b, c) = body(g, x);
        released.extend([a, b].map(|id| g.value(id).data.as_ptr()));
        c
    });
    // The next two same-sized ops take the two released buffers back.
    let z = g.scale(y, 0.5);
    let w = g.scale(z, 0.5);
    let mut reused = [z, w].map(|id| g.value(id).data.as_ptr());
    reused.sort();
    released.sort();
    assert_eq!(reused.to_vec(), released, "released buffers are reused");

    let mut plain = Graph::new_inference(&B);
    let x = plain.input(ramp(&[4, 8]));
    let (_, _, c) = body(&mut plain, x);
    let z = plain.scale(c, 0.5);
    let want = plain.scale(z, 0.5);
    let bits =
        |g: &Graph<'_>, id| -> Vec<u32> { g.value(id).data.iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&g, w), bits(&plain, want));
}

#[test]
#[should_panic(expected = "was released by Graph::scope")]
fn reading_a_released_node_panics() {
    let mut g = Graph::new_inference(&B);
    let x = g.input(ramp(&[2, 4]));
    let mut inner = None;
    let _ = g.scope(|g| {
        let (a, _, c) = body(g, x);
        inner = Some(a);
        c
    });
    let _ = g.value(inner.unwrap());
}

#[test]
#[should_panic(expected = "was released by Graph::scope")]
fn a_released_node_fails_as_an_op_input() {
    let mut g = Graph::new_inference(&B);
    let x = g.input(ramp(&[2, 4]));
    let mut inner = None;
    let _ = g.scope(|g| {
        let (_, b, c) = body(g, x);
        inner = Some(b);
        c
    });
    let _ = g.add(inner.unwrap(), x);
}

/// An inner scope's result lives on through the outer scope's body, and
/// the outer scope then releases it along with everything else.
#[test]
#[should_panic(expected = "was released by Graph::scope")]
fn nested_scopes_release_the_inner_result_with_the_outer_scope() {
    let mut g = Graph::new_inference(&B);
    let x = g.input(ramp(&[3, 4]));
    let mut inner = None;
    let out = g.scope(|g| {
        let c = g.scope(|g| body(g, x).2);
        inner = Some(c);
        let sq = g.mul(c, c);
        g.scope(|g| g.scale(sq, 0.5))
    });

    let mut plain = Graph::new_inference(&B);
    let px = plain.input(ramp(&[3, 4]));
    let (_, _, c) = body(&mut plain, px);
    let sq = plain.mul(c, c);
    let want = plain.scale(sq, 0.5);
    assert_eq!(g.value(out).data, plain.value(want).data);
    assert_eq!(g.value(x).data, ramp(&[3, 4]).data, "inputs outlive scopes");

    let _ = g.value(inner.unwrap());
}

#[test]
#[should_panic(expected = "was released by Graph::scope")]
fn a_scope_returning_an_older_node_releases_all_it_made() {
    let mut g = Graph::new_inference(&B);
    let x = g.input(ramp(&[2, 4]));
    let mut made = None;
    let back = g.scope(|g| {
        made = Some(body(g, x).2);
        x
    });
    assert_eq!(back, x);
    assert_eq!(g.value(x).data, ramp(&[2, 4]).data);
    let _ = g.value(made.unwrap());
}

/// On a training tape every node stays readable, and the gradients equal
/// those of the same tape built without scopes.
#[test]
fn scopes_are_the_identity_on_a_training_tape() {
    let run = |scoped: bool| {
        let mut g = Graph::with_mode(&B, EvalMode::Train, BufferPool::new());
        let x = g.input(ramp(&[3, 4]));
        let mut nodes = (x, x, x);
        let y = if scoped {
            g.scope(|g| {
                nodes = body(g, x);
                nodes.2
            })
        } else {
            nodes = body(&mut g, x);
            nodes.2
        };
        let sq = g.mul(y, y);
        let loss = g.mean_all(sq);
        g.backward(loss);
        let (a, b, _) = nodes;
        (
            g.value(a).data.clone(),
            g.value(b).data.clone(),
            g.grad(x).expect("input grad").to_vec(),
        )
    };
    assert_eq!(run(true), run(false));
}
