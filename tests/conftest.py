import pytest

import images


@pytest.fixture(scope="session", autouse=True)
def shared_images_unchanged():
    """Fail the session if a test changed an image that images.image shares."""
    yield
    changed = images.changed_keys()
    if changed:
        pytest.fail("shared images changed by a test: " + ", ".join(
            f"{model.name} {config}" for model, config in changed), pytrace=False)


def pytest_terminal_summary(terminalreporter):
    stats = images.STATS
    terminalreporter.write_line(
        f"shared images: {stats['sweeps']} sweeps in {stats['seconds']:.1f} s, "
        f"{stats['hits']} cache hits")
