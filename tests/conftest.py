import pytest

from ltne import CertificateSuite


class SampleLog:
    """Monitor for `run` that keeps what it is handed at each sample: the
    time, the (3, Nx, Nz) coefficient array and the prestate's array."""

    def __init__(self):
        self.times, self.samples, self.prestates = [], [], []

    def on_sample(self, t, c, c_pre, dt):
        self.times.append(t)
        self.samples.append(c)
        self.prestates.append(c_pre)


@pytest.fixture
def sample_log():
    """Factory of fresh SampleLog monitors, one per run."""
    return SampleLog


class RecordingSuite(CertificateSuite):
    """CertificateSuite that also keeps every record it certifies, in
    sample order, in `records`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []

    def on_sample(self, t, c, c_pre, dt):
        rec = super().on_sample(t, c, c_pre, dt)
        self.records.append(rec)
        return rec


@pytest.fixture(scope="session")
def recording_suite():
    """The RecordingSuite class, for tests that read every record of a
    run."""
    return RecordingSuite
