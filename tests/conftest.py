from hypothesis import settings

# Example times drift by tens of percent with the host's load, so no
# example has a deadline; each test keeps its own max_examples.
settings.register_profile("telematch", deadline=None)
settings.load_profile("telematch")
