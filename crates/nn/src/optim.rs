//! Optimizers: SGD, Adam, and AdaMax (Kingma & Ba 2014). The paper tuned
//! both Adam and AdaMax and "found the latter performed better" (§5.2).

use crate::params::{Grads, Params};
use crate::tensor::Tensor;

/// A first-order optimizer over a [`Params`] store.
pub trait Optimizer {
    /// Apply one update from accumulated gradients.
    fn step(&mut self, params: &mut Params, grads: &Grads);

    /// Learning rate accessor (for schedules).
    fn lr(&self) -> f32;
    fn set_lr(&mut self, lr: f32);
}

/// Plain SGD with optional weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    pub lr: f32,
    pub weight_decay: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Sgd {
        Sgd {
            lr,
            weight_decay: 0.0,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut Params, grads: &Grads) {
        for id in params.iter_ids().collect::<Vec<_>>() {
            let g = grads.get(id).clone();
            let t = params.get_mut(id);
            for (w, gi) in t.data.iter_mut().zip(&g.data) {
                *w -= self.lr * (gi + self.weight_decay * *w);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Shared moment state for the Adam family.
#[derive(Debug, Clone)]
struct Moments {
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl Moments {
    fn for_params(params: &Params) -> Moments {
        let m = params
            .iter_ids()
            .map(|id| {
                let t = params.get(id);
                Tensor::zeros(t.rows, t.cols)
            })
            .collect::<Vec<_>>();
        Moments {
            v: m.clone(),
            m,
            t: 0,
        }
    }
}

/// Adam (Kingma & Ba 2014, Algorithm 1).
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    state: Option<Moments>,
}

impl Adam {
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            state: None,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Params, grads: &Grads) {
        let state = self
            .state
            .get_or_insert_with(|| Moments::for_params(params));
        state.t += 1;
        let bc1 = 1.0 - self.beta1.powi(state.t as i32);
        let bc2 = 1.0 - self.beta2.powi(state.t as i32);
        for id in params.iter_ids().collect::<Vec<_>>() {
            let g = grads.get(id);
            let m = &mut state.m[id.0];
            let v = &mut state.v[id.0];
            for k in 0..g.data.len() {
                let gi = g.data[k] + self.weight_decay * params.get(id).data[k];
                m.data[k] = self.beta1 * m.data[k] + (1.0 - self.beta1) * gi;
                v.data[k] = self.beta2 * v.data[k] + (1.0 - self.beta2) * gi * gi;
            }
            let t = params.get_mut(id);
            for k in 0..t.data.len() {
                let mhat = m.data[k] / bc1;
                let vhat = v.data[k] / bc2;
                t.data[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// AdaMax (Kingma & Ba 2014, §7.1): Adam with the L∞ norm in place of the
/// second moment — the optimizer the paper settled on.
#[derive(Debug, Clone)]
pub struct AdaMax {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    state: Option<Moments>,
}

impl AdaMax {
    pub fn new(lr: f32) -> AdaMax {
        AdaMax {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            state: None,
        }
    }
}

impl Optimizer for AdaMax {
    fn step(&mut self, params: &mut Params, grads: &Grads) {
        let state = self
            .state
            .get_or_insert_with(|| Moments::for_params(params));
        state.t += 1;
        let bc1 = 1.0 - self.beta1.powi(state.t as i32);
        for id in params.iter_ids().collect::<Vec<_>>() {
            let g = grads.get(id);
            let m = &mut state.m[id.0];
            let u = &mut state.v[id.0]; // reused as the infinity-norm track
            for k in 0..g.data.len() {
                let gi = g.data[k] + self.weight_decay * params.get(id).data[k];
                m.data[k] = self.beta1 * m.data[k] + (1.0 - self.beta1) * gi;
                u.data[k] = (self.beta2 * u.data[k]).max(gi.abs());
            }
            let t = params.get_mut(id);
            for k in 0..t.data.len() {
                t.data[k] -= self.lr / bc1 * m.data[k] / (u.data[k] + self.eps);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::Tensor;

    /// Minimize huber(w·x − y) and check each optimizer converges on a
    /// trivial 1-D regression.
    fn converges(mut opt: impl Optimizer) -> f32 {
        let mut params = Params::new();
        let w = params.add("w", Tensor::scalar(0.0));
        // Target: w = 2 (x = 1, y = 2).
        for _ in 0..400 {
            let mut grads = params.zero_grads();
            let mut g = Graph::new(&params);
            let wv = g.param(w);
            let loss = g.huber_rows(wv, vec![2.0], 1.0);
            g.backward(loss, 1.0, &mut grads);
            // Graph implements Drop (arena recycling), so its borrow of
            // `params` must end before the mutable optimizer step.
            drop(g);
            opt.step(&mut params, &grads);
        }
        params.get(w).item()
    }

    #[test]
    fn sgd_converges() {
        let w = converges(Sgd::new(0.05));
        assert!((w - 2.0).abs() < 0.1, "sgd w={w}");
    }

    #[test]
    fn adam_converges() {
        let w = converges(Adam::new(0.05));
        assert!((w - 2.0).abs() < 0.1, "adam w={w}");
    }

    #[test]
    fn adamax_converges() {
        let w = converges(AdaMax::new(0.05));
        assert!((w - 2.0).abs() < 0.1, "adamax w={w}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::scalar(5.0));
        let grads = params.zero_grads(); // zero gradient
        let mut opt = Sgd {
            lr: 0.1,
            weight_decay: 0.5,
        };
        opt.step(&mut params, &grads);
        assert!(params.get(w).item() < 5.0);
    }

    #[test]
    fn lr_accessors() {
        let mut o = Adam::new(0.01);
        assert_eq!(o.lr(), 0.01);
        o.set_lr(0.005);
        assert_eq!(o.lr(), 0.005);
    }
}
