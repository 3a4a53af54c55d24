//! Every deployed task's operator, in its subscription's slot.
//!
//! The paper's Subscription Manager deploys a subscription as one plan and
//! undeploys it as one plan, and the operator store has the same shape: a
//! deploy hands over one `Vec` with an operator per placed task, indexed by
//! task id, and a teardown empties slots of it.  Finding an operator is two
//! `Vec` indexes.  An aggregate's root holds its merge tree's stages, so a
//! tree fills one slot and leaves in one step, but the counts below count
//! each stage as an operator.  The host a task or stage runs on is its
//! plan's business (the placed plan names it); the store never asks.
//!
//! A subscription whose last operator leaves gives its `Vec` back, so a
//! retired subscription holds no slot storage.

use crate::runtime::RuntimeOperator;

/// The operator instance of every deployed task, indexed
/// `[subscription][task]`, with a live count.
#[derive(Default)]
pub(crate) struct OperatorSlots {
    subs: Vec<SubscriptionSlots>,
    /// Operators deployed across every subscription, merge-tree stages
    /// included.
    live: usize,
}

/// One subscription's slots: `None` once the task is torn down.
struct SubscriptionSlots {
    operators: Vec<Option<RuntimeOperator>>,
    /// Slots still filled.
    filled: usize,
    /// Operators still deployed, merge-tree stages included.
    live: usize,
}

impl OperatorSlots {
    /// Installs the operators of subscription `sub`, one per placed task in
    /// task order.  Subscriptions are deployed in index order.
    pub(crate) fn deploy(&mut self, sub: usize, operators: Vec<RuntimeOperator>) {
        assert_eq!(sub, self.subs.len(), "subscriptions deploy in index order");
        let live = operators.iter().map(RuntimeOperator::operators).sum();
        self.live += live;
        self.subs.push(SubscriptionSlots {
            filled: operators.len(),
            live,
            operators: operators.into_iter().map(Some).collect(),
        });
    }

    /// The deployed operator of `(sub, task)`.
    pub(crate) fn get(&self, sub: usize, task: usize) -> Option<&RuntimeOperator> {
        self.subs.get(sub)?.operators.get(task)?.as_ref()
    }

    /// The deployed operator of `(sub, task)`, mutably.
    pub(crate) fn get_mut(&mut self, sub: usize, task: usize) -> Option<&mut RuntimeOperator> {
        self.subs.get_mut(sub)?.operators.get_mut(task)?.as_mut()
    }

    /// Empties the slot of `(sub, task)`, returning its operator when it was
    /// deployed.  The subscription's last operator frees its slots.
    pub(crate) fn remove(&mut self, sub: usize, task: usize) -> Option<RuntimeOperator> {
        let slots = self.subs.get_mut(sub)?;
        let operator = slots.operators.get_mut(task)?.take()?;
        let operators = operator.operators();
        slots.filled -= 1;
        slots.live -= operators;
        self.live -= operators;
        if slots.filled == 0 {
            slots.operators = Vec::new();
        }
        Some(operator)
    }

    /// Operators deployed across every subscription, merge-tree stages
    /// included.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Operators of subscription `sub` still deployed, merge-tree stages
    /// included.
    pub(crate) fn live_of(&self, sub: usize) -> usize {
        self.subs.get(sub).map_or(0, |slots| slots.live)
    }

    /// Slots subscription `sub` holds storage for: one per placed task while
    /// any of its operators is deployed, none after.
    pub(crate) fn held_by(&self, sub: usize) -> usize {
        self.subs
            .get(sub)
            .map_or(0, |slots| slots.operators.capacity())
    }

    /// The deployed operators of subscription `sub`, as `(task, operator)`.
    pub(crate) fn of(&self, sub: usize) -> impl Iterator<Item = (usize, &RuntimeOperator)> {
        let slots = self.subs.get(sub).map(|slots| &slots.operators);
        slots
            .into_iter()
            .flatten()
            .enumerate()
            .filter_map(|(task, slot)| Some((task, slot.as_ref()?)))
    }

    /// Every deployed operator, as `(subscription, task, operator)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize, &RuntimeOperator)> {
        (0..self.subs.len()).flat_map(move |sub| {
            self.of(sub)
                .map(move |(task, operator)| (sub, task, operator))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::TaskKind;
    use p2pmon_streams::ops::Window;

    fn operators(n: usize) -> Vec<RuntimeOperator> {
        let dedup = || RuntimeOperator::for_kind(&TaskKind::Dedup, Window::items(4));
        (0..n).map(|_| dedup()).collect()
    }

    #[test]
    fn a_deploy_fills_one_subscriptions_slots() {
        let mut slots = OperatorSlots::default();
        slots.deploy(0, operators(3));
        slots.deploy(1, operators(2));
        assert_eq!(slots.len(), 5);
        assert_eq!((slots.live_of(0), slots.live_of(1)), (3, 2));
        assert!(slots.get_mut(1, 1).is_some());
        assert!(slots.get_mut(1, 2).is_none(), "past the plan");
        assert!(slots.get_mut(2, 0).is_none(), "never deployed");
        assert!(slots.get_mut(0, 2).is_some());
        let all: Vec<_> = slots.iter().map(|(s, t, _)| (s, t)).collect();
        assert_eq!(all, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "index order")]
    fn subscriptions_deploy_in_index_order() {
        let mut slots = OperatorSlots::default();
        slots.deploy(1, operators(1));
    }

    #[test]
    fn a_removal_empties_one_slot_once_and_keeps_the_count() {
        let mut slots = OperatorSlots::default();
        slots.deploy(0, operators(3));
        assert!(slots.remove(0, 1).is_some());
        assert!(slots.remove(0, 1).is_none(), "already emptied");
        assert!(slots.remove(0, 7).is_none(), "past the plan");
        assert!(slots.remove(4, 0).is_none(), "never deployed");
        assert_eq!((slots.len(), slots.live_of(0)), (2, 2));
        let left: Vec<_> = slots.of(0).map(|(task, _)| task).collect();
        assert_eq!(left, [0, 2]);
        assert!(slots.get_mut(0, 1).is_none());
    }

    #[test]
    fn the_last_removal_frees_the_subscriptions_slots() {
        let mut slots = OperatorSlots::default();
        slots.deploy(0, operators(2));
        slots.deploy(1, operators(1));
        assert_eq!(slots.held_by(0), 2);
        slots.remove(0, 0);
        assert_eq!(slots.held_by(0), 2, "a live operator keeps the slots");
        slots.remove(0, 1);
        assert_eq!(slots.held_by(0), 0, "the last one frees them");
        assert_eq!(slots.live_of(0), 0);
        assert!(slots.remove(0, 1).is_none());
        assert_eq!(slots.of(0).count(), 0);
        assert_eq!((slots.len(), slots.held_by(1)), (1, 1));
    }
}
