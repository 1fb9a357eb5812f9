import pytest


class SampleLog:
    """Monitor for `run` that keeps what it is handed at each sample."""

    def __init__(self):
        self.times, self.states, self.prestates = [], [], []

    def on_sample(self, t, state, prestate, dt):
        self.times.append(t)
        self.states.append(state)
        self.prestates.append(prestate)


@pytest.fixture
def sample_log():
    """Factory of fresh SampleLog monitors, one per run."""
    return SampleLog
