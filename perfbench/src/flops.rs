//! Operation counts of the DFP network, computed from the layer shapes
//! a [`DfpConfig`] implies (MLP state module). Only the dense-layer
//! matrix products are counted, two FLOPs per multiply-add; biases,
//! activations and the dueling combination are left out. The counts are
//! computed, not read from hardware counters.

use mrsch_dfp::{DfpConfig, StateModuleKind};

/// `(inputs, outputs)` of every dense layer of the five subnets.
pub fn dense_shapes(cfg: &DfpConfig) -> Vec<(usize, usize)> {
    assert_eq!(
        cfg.state_module,
        StateModuleKind::Mlp,
        "FLOP count covers the MLP state module"
    );
    let chain = |dims: &[usize]| dims.windows(2).map(|w| (w[0], w[1])).collect::<Vec<_>>();
    let mut state = vec![cfg.state_dim];
    state.extend(&cfg.state_hidden);
    state.push(cfg.state_embed);
    let io = [
        cfg.measurement_dim,
        cfg.io_hidden,
        cfg.io_hidden,
        cfg.io_embed,
    ];
    let joint = cfg.state_embed + 2 * cfg.io_embed;
    let mt = cfg.pred_width();
    let mut shapes = chain(&state);
    shapes.extend(chain(&io)); // measurement module
    shapes.extend(chain(&io)); // goal module
    shapes.extend(chain(&[joint, cfg.stream_hidden, mt])); // expectation stream
    shapes.extend(chain(&[joint, cfg.stream_hidden, cfg.num_actions * mt])); // action stream
    shapes
}

/// FLOPs of one forward pass over `batch` rows.
pub fn forward_flops(cfg: &DfpConfig, batch: usize) -> u64 {
    dense_shapes(cfg)
        .iter()
        .map(|&(i, o)| 2 * (batch * i * o) as u64)
        .sum()
}

/// FLOPs of one training step at the configured batch size: the
/// forward pass plus the input-gradient and weight-gradient products
/// of the backward pass, each the size of the forward one.
pub fn train_step_flops(cfg: &DfpConfig) -> u64 {
    3 * forward_flops(cfg, cfg.batch_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrsch_dfp::DfpNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// state 4 → 3 → 2; io 1 → 2 → 2 → 1; joint 4 → 5 → 2 (M·T = 1·2)
    /// and 4 → 5 → 6 (A = 3).
    fn hand_sized() -> DfpConfig {
        let mut c = DfpConfig::scaled(4, 1, 3);
        c.offsets = vec![1, 2];
        c.offset_weights = vec![0.5, 1.0];
        c.state_hidden = vec![3];
        c.state_embed = 2;
        c.io_hidden = 2;
        c.io_embed = 1;
        c.stream_hidden = 5;
        c.batch_size = 8;
        c
    }

    #[test]
    fn hand_sized_network_counts() {
        let cfg = hand_sized();
        // Multiply-adds per row: state 4·3 + 3·2 = 18; each io module
        // 1·2 + 2·2 + 2·1 = 8; expectation 4·5 + 5·2 = 30; action
        // 4·5 + 5·6 = 50. Total 114, so 228 FLOPs per row.
        assert_eq!(forward_flops(&cfg, 1), 228);
        assert_eq!(forward_flops(&cfg, 8), 8 * 228);
        assert_eq!(train_step_flops(&cfg), 3 * 8 * 228);
    }

    #[test]
    fn shapes_match_the_built_network() {
        for cfg in [hand_sized(), DfpConfig::scaled(702, 2, 10)] {
            let net = DfpNetwork::new(cfg.clone(), &mut StdRng::seed_from_u64(1));
            let params: usize = dense_shapes(&cfg).iter().map(|&(i, o)| i * o + o).sum();
            assert_eq!(
                params,
                net.param_count(),
                "layer shapes drifted from DfpNetwork"
            );
        }
    }
}
