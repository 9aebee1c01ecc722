"""The observer fan-out: forwarders built from the hooks each child implements.

A :class:`CompositeObserver` must notify exactly what a plain loop over its
children would: each child's own hooks, in install order, and nothing for a
hook no child implements.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.sim.observers import HOOKS, BaseObserver, CompositeObserver, implemented_hooks


def _arity(hook):
    return getattr(BaseObserver, hook).__code__.co_argcount - 1


def _logging_hook(hook):
    def method(self, *args):
        self.log.append((self.tag, hook, args))

    return method


def _toy_observer(tag, hooks, duck_typed, log):
    """An observer whose class implements ``hooks``, each logging its calls.

    A duck-typed one is not a :class:`BaseObserver` subclass (like the
    recorder in ``tests/sim/test_engine.py``) and defines only those hooks.
    """
    bases = () if duck_typed else (BaseObserver,)
    cls = type("Toy", bases, {hook: _logging_hook(hook) for hook in hooks})
    observer = cls()
    observer.tag, observer.log = tag, log
    return observer


_CHILDREN = st.lists(
    st.tuples(st.frozensets(st.sampled_from(HOOKS)), st.booleans()), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(children=_CHILDREN)
@example(children=[(frozenset({"on_event_fired", "on_block_started"}), True),
                   (frozenset({"on_block_started"}), False)])
def test_composite_notifies_exactly_what_a_loop_over_children_would(children):
    log = []
    observers = [
        _toy_observer(tag, hooks, duck_typed, log)
        for tag, (hooks, duck_typed) in enumerate(children)
    ]
    composite = CompositeObserver(observers)

    expected = []
    for hook in HOOKS:
        args = tuple(f"{hook}.{index}" for index in range(_arity(hook)))
        getattr(composite, hook)(*args)
        # The reference: each observer's own hooks, in install order.
        for observer, (hooks, _) in zip(observers, children):
            if hook in hooks:
                expected.append((observer.tag, hook, args))
    assert log == expected

    assert composite.hooks == frozenset().union(*(hooks for hooks, _ in children))
    for hook in HOOKS:
        owners = [o for o, (hooks, _) in zip(observers, children) if hook in hooks]
        if not owners:
            # Unimplemented: the inherited no-op, not a forwarder.
            assert hook not in vars(composite)
        elif len(owners) == 1:
            assert getattr(composite, hook) == getattr(owners[0], hook)


def test_implemented_hooks_are_the_overridden_ones():
    class Partial(BaseObserver):
        def on_sm_released(self, sm) -> None:
            pass

    class Duck:
        def on_event_fired(self, event, previous_now):
            pass

    assert implemented_hooks(BaseObserver()) == frozenset()
    assert implemented_hooks(Partial()) == {"on_sm_released"}
    assert implemented_hooks(Duck()) == {"on_event_fired"}
    assert implemented_hooks(CompositeObserver([Partial(), Duck()])) == {
        "on_sm_released", "on_event_fired",
    }
    # A nested composite contributes its children's hooks.
    nested = CompositeObserver([CompositeObserver([Duck()]), Partial()])
    assert nested.hooks == {"on_sm_released", "on_event_fired"}
